// Sharded: a keyspace consistent-hashed over two replication groups
// with a client request layer that survives crash failover AND a
// primary partition — the data plane a production-scale deployment
// shards its traffic over.
//
// Two semi-active replica groups (shard0 on nodes 0–2, shard1 on
// nodes 3–5) each run inside their own view-synchronous membership
// group; a client on node 6 submits one keyed request every
// millisecond, round-robin over eight keys. The router follows the
// ring; the client follows the router to each shard's current
// primary.
//
// At 60 ms shard0's primary crashes: the membership group agrees on
// the removal view, the same follower is promoted everywhere at the
// same instant, the router republishes ownership, and the client's
// in-flight and retried requests redirect to the new primary —
// retried requests that had already been applied are answered from
// the replicated dedup cache, not applied twice.
//
// At 140 ms shard1's primary is segmented off alone (a partition, not
// a crash). The majority side holds quorum, installs the removal view
// and promotes; the isolated ex-primary blocks (split-brain safety)
// and is re-admitted through a merge view with a state transfer at
// the heal. The client rides the window out with retries and
// redirects.
//
// At the end the run asserts the headline property: every
// acknowledged request was applied exactly once in the owning shard's
// authoritative history, in per-key submission order.
//
//	go run ./examples/sharded
package main

import (
	"fmt"

	"hades/internal/cluster"
	"hades/internal/dispatcher"
	"hades/internal/vtime"
)

const ms = vtime.Millisecond

func main() {
	c := cluster.New(cluster.Config{Seed: 7, Costs: dispatcher.DefaultCostBook()})
	c.AddNodes(7) // 2 shards × 3 replicas + 1 client
	c.ConnectAll(100*vtime.Microsecond, 250*vtime.Microsecond)

	set := c.Shards(2, 3) // semi-active by default
	client := set.ClientAt(6)

	keys := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"}
	for i := 0; i < 300; i++ {
		key := keys[i%len(keys)]
		cmd := int64(i + 1)
		c.At(vtime.Time(vtime.Duration(i)*ms), func() { client.Submit(key, cmd) })
	}

	c.Crash(0, vtime.Time(60*ms), vtime.Time(260*ms))                    // shard0's primary
	c.PartitionAt(vtime.Time(140*ms), []int{3}, []int{0, 1, 2, 4, 5, 6}) // shard1's primary, alone
	c.HealAt(vtime.Time(240 * ms))

	res := c.Run(400 * ms)

	fmt.Println("=== sharded data plane: crash on shard0, partition on shard1, 400 ms ===")
	fmt.Print(res)
	fmt.Println()
	for _, g := range set.Groups() {
		rep := g.Replication()
		fmt.Printf("%s (nodes %v): primary n%d, %d requests, %d redirects, %d dedup hits\n",
			g.Name(), g.Nodes(), rep.Primary(), g.Stats.Requests, g.Stats.Redirects, rep.Duplicates)
		for _, fo := range rep.Failovers {
			fmt.Printf("  failover n%d -> n%d in view %d at %s\n", fo.From, fo.To, fo.InView, fo.At)
		}
		for _, mg := range g.Membership().Merges {
			fmt.Printf("  merge %s re-admitted %v at %s (%s after the heal)\n", mg.View, mg.Readmitted, mg.At, mg.Latency)
		}
	}
	st := client.Stats
	fmt.Printf("router republishes: %d\n", set.Router().Republishes)
	fmt.Printf("client: %d submitted, %d acked, %d redirects, %d retries, %d queued, %d resubmitted\n",
		st.Submitted, st.Acked, st.Redirects, st.Retries, st.Queued, st.Resubmitted)
	fmt.Printf("latency: avg %s, max %s (timeouts and queue time included)\n", st.AvgLatency(), st.MaxLatency)
	if err := c.Verify(); err != nil {
		fmt.Printf("CONSISTENCY VIOLATION: %v\n", err)
		return
	}
	fmt.Println("consistency: every acked request applied exactly once, per-key order intact")
}
