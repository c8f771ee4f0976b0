package fbcache_test

import (
	"bytes"
	"fmt"
	"slices"

	"fbcache"
)

// The smallest useful session: a catalog, a cache, two admissions.
func Example() {
	cat := fbcache.NewCatalog()
	energy := cat.Add("evt-energy", 2*fbcache.GB)
	momentum := cat.Add("evt-momentum", 1*fbcache.GB)

	cache := fbcache.NewCache(10*fbcache.GB, cat.SizeFunc())

	res := cache.Admit(fbcache.NewBundle(energy, momentum))
	fmt.Println("hit:", res.Hit, "loaded:", res.BytesLoaded)

	res = cache.Admit(fbcache.NewBundle(energy, momentum))
	fmt.Println("hit:", res.Hit, "loaded:", res.BytesLoaded)
	// Output:
	// hit: false loaded: 3.00GB
	// hit: true loaded: 0B
}

// The §3 worked example: the best cache content supports three of six
// requests while the three most popular files support only one.
func ExampleNewCache_paperExample() {
	cat := fbcache.NewCatalog()
	f := make([]fbcache.FileID, 8)
	for i := 1; i <= 7; i++ {
		f[i] = cat.Add(fmt.Sprintf("f%d", i), 1)
	}
	requests := []fbcache.Bundle{
		fbcache.NewBundle(f[1], f[3], f[5]),
		fbcache.NewBundle(f[2], f[4], f[6], f[7]),
		fbcache.NewBundle(f[1], f[5]),
		fbcache.NewBundle(f[4], f[6], f[7]),
		fbcache.NewBundle(f[3], f[5]),
		fbcache.NewBundle(f[5], f[6], f[7]),
	}
	supports := func(content fbcache.Bundle) int {
		n := 0
		for _, r := range requests {
			if r.SubsetOf(content) {
				n++
			}
		}
		return n
	}
	fmt.Println("popular {f5,f6,f7}:", supports(fbcache.NewBundle(f[5], f[6], f[7])), "of 6")
	fmt.Println("optimal {f1,f3,f5}:", supports(fbcache.NewBundle(f[1], f[3], f[5])), "of 6")
	// Output:
	// popular {f5,f6,f7}: 1 of 6
	// optimal {f1,f3,f5}: 3 of 6
}

// Generating a reproducible §5.1 workload and simulating a policy over it.
func ExampleRun() {
	spec := fbcache.DefaultWorkloadSpec()
	spec.Jobs = 1000
	spec.Popularity = fbcache.Zipf
	w, err := fbcache.Generate(spec)
	if err != nil {
		panic(err)
	}
	p := fbcache.NewCache(spec.CacheSize, w.Catalog.SizeFunc())
	col, err := fbcache.Run(w, p, fbcache.SimOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("jobs:", col.Jobs())
	fmt.Println("byte miss ratio in (0,1):", col.ByteMissRatio() > 0 && col.ByteMissRatio() < 1)
	// Output:
	// jobs: 1000
	// byte miss ratio in (0,1): true
}

// Staging through the concurrent SRM service with pinning.
func ExampleNewSRM() {
	cat := fbcache.NewCatalog()
	cat.Add("temperature.nc", fbcache.GB)
	cat.Add("humidity.nc", fbcache.GB)
	service := fbcache.NewSRM(fbcache.NewCache(4*fbcache.GB, cat.SizeFunc()), cat)

	b, err := cat.Resolve([]string{"temperature.nc", "humidity.nc"})
	if err != nil {
		panic(err)
	}
	release, res, err := service.Stage(b)
	if err != nil {
		panic(err)
	}
	fmt.Println("staged, hit:", res.Hit)
	release()
	fmt.Println("active after release:", service.Stats().ActiveJobs)
	// Output:
	// staged, hit: false
	// active after release: 0
}

// Submitting work to the job service layer.
func ExampleNewJobManager() {
	cat := fbcache.NewCatalog()
	a := cat.Add("bins/a.bm", fbcache.MB)
	b := cat.Add("bins/b.bm", fbcache.MB)
	service := fbcache.NewSRM(fbcache.NewCache(8*fbcache.MB, cat.SizeFunc()), cat)
	mgr := fbcache.NewJobManager(service, fbcache.JobConfig{Workers: 2})
	defer mgr.Close()

	done, err := mgr.Submit(fbcache.JobSpec{
		Bundle:  fbcache.NewBundle(a, b),
		Process: func() error { return nil }, // runs with the bundle pinned
	})
	if err != nil {
		panic(err)
	}
	res := <-done
	fmt.Println("err:", res.Err, "hit:", res.Hit)
	// Output:
	// err: <nil> hit: false
}

// Archiving a workload as a compact gob trace and reading it back: the
// replayed trace carries the same requests in the same job order.
func ExampleWriteTraceGob() {
	spec := fbcache.DefaultWorkloadSpec()
	spec.Jobs = 200
	w, err := fbcache.Generate(spec)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := fbcache.WriteTraceGob(&buf, w); err != nil {
		panic(err)
	}
	back, err := fbcache.ReadTraceGob(&buf)
	if err != nil {
		panic(err)
	}
	same := slices.Equal(back.Jobs, w.Jobs) && len(back.Requests) == len(w.Requests)
	for i := range w.Requests {
		same = same && back.Requests[i].Equal(w.Requests[i])
	}
	fmt.Println("jobs:", len(back.Jobs), "identical:", same)
	// Output:
	// jobs: 200 identical: true
}

// A disk cache spread over four cluster nodes, each running its own
// OptFileBundle policy over a quarter of the capacity.
func ExampleNewShardedCache() {
	cat := fbcache.NewCatalog()
	var files []fbcache.FileID
	for i := 0; i < 4; i++ {
		files = append(files, cat.Add(fmt.Sprintf("run%d.root", i), fbcache.GB))
	}
	cache, err := fbcache.NewShardedCache(8*fbcache.GB, 4, cat.SizeFunc(),
		fbcache.OptFileBundlePolicyFactory(), nil)
	if err != nil {
		panic(err)
	}
	fmt.Println(cache.Name())
	for i := 0; i < 2; i++ {
		res := cache.Admit(fbcache.NewBundle(files...))
		fmt.Println("hit:", res.Hit, "loaded:", res.BytesLoaded)
	}
	// Output:
	// optfilebundle-sharded4
	// hit: false loaded: 4.00GB
	// hit: true loaded: 0B
}

// The clairvoyant Belady baseline knows the future: with room for two
// files, it evicts b, which is never requested again, and keeps a.
func ExampleNewBelady() {
	cat := fbcache.NewCatalog()
	a, b, c := cat.Add("a", 1), cat.Add("b", 1), cat.Add("c", 1)
	future := []fbcache.Bundle{
		fbcache.NewBundle(a), fbcache.NewBundle(b), fbcache.NewBundle(c), fbcache.NewBundle(a),
	}
	belady := fbcache.NewBelady(2, cat.SizeFunc(), future)
	for _, r := range future {
		fmt.Print(belady.Admit(r).Hit, " ")
	}
	fmt.Println()
	// Output:
	// false false false true
}

// Association prefetching learns that b travels with a. When a request for a
// finds b gone, the wrapper fetches b into free space alongside it.
func ExampleWithAssociationPrefetch() {
	cat := fbcache.NewCatalog()
	a, b := cat.Add("a", fbcache.MB), cat.Add("b", fbcache.MB)
	inner := fbcache.NewCache(10*fbcache.MB, cat.SizeFunc())
	p := fbcache.WithAssociationPrefetch(inner, cat.SizeFunc(),
		fbcache.PrefetchOptions{FanOut: 1, MinConfidence: 0.5})
	for i := 0; i < 3; i++ {
		p.Admit(fbcache.NewBundle(a, b))
	}
	if err := inner.Cache().Evict(b); err != nil {
		panic(err)
	}
	res := p.Admit(fbcache.NewBundle(a))
	fmt.Println("loaded:", res.BytesLoaded, "b resident:", inner.Cache().Contains(b))
	// Output:
	// loaded: 1.00MB b resident: true
}
