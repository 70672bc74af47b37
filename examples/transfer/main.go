// Transfer: cross-shard atomic bank transfers over the sharded data
// plane — two-phase commit where the coordinator log and the
// participants are the replicated shard groups, and every transfer
// carries a virtual-time deadline.
//
// Two semi-active shard groups (shard0 on nodes 0–2, shard1 on nodes
// 3–5) hold the accounts, consistent-hashed over the ring; a
// transaction client on node 6 submits one two-account transfer every
// 3 ms (read both balances, debit one, credit the other — the
// accounts usually live on different shards, so the transfer is a
// genuinely distributed atomic commitment).
//
// Each transaction's coordinator is the shard group its id hashes
// onto: the coordinator primary drives PREPARE to each owning shard's
// primary, participants take per-key locks and vote, and the decision
// is logged through the coordinator group's replicated machine before
// any participant applies — so it survives the crash failover below.
// The client only sees "committed" after every participant applied,
// which is exactly the property the final verification audits.
//
// At 60 ms shard0's primary crashes (recovering at 260 ms): prepares
// and submissions redirect to the promoted replica; transactions
// caught mid-protocol abort on their 30 ms deadlines — per-key locks
// are NEVER held past a deadline, so the fault window cannot wedge
// the lock tables.
//
// At 140 ms shard1's serving quorum {3,4} is segmented away from the
// client side until 240 ms. No failover can rescue that traffic (the
// quorum and its primary are intact, merely unreachable), so
// transfers touching shard1 deterministically deadline-abort during
// the window — deadline-aware admission instead of best-effort
// blocking — and resume after the heal, when parked submissions and
// decisions are re-driven.
//
// At the end the run asserts the headline property (txn.Verify):
// every committed transfer's two writes appear exactly once in BOTH
// owning shards' authoritative histories, aborted transfers left no
// partial write anywhere, and no lock outlived its deadline.
//
//	go run ./examples/transfer
package main

import (
	"fmt"

	"hades/internal/cluster"
	"hades/internal/dispatcher"
	"hades/internal/vtime"
)

const ms = vtime.Millisecond

func main() {
	c := cluster.New(cluster.Config{Seed: 21, Costs: dispatcher.DefaultCostBook()})
	c.AddNodes(7) // 2 shards × 3 replicas + 1 transaction client
	c.ConnectAll(100*vtime.Microsecond, 250*vtime.Microsecond)

	set := c.Shards(2, 3)
	client := set.TxnClientAt(6) // 30 ms default deadline

	accounts := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"}
	for i := 0; i < 100; i++ {
		src := accounts[i%len(accounts)]
		dst := accounts[(i+1)%len(accounts)]
		amount := int64(i + 1)
		c.At(vtime.Time(vtime.Duration(3*i)*ms), func() { client.Transfer(src, dst, amount) })
	}

	c.Crash(0, vtime.Time(60*ms), vtime.Time(260*ms))                    // shard0's primary
	c.PartitionAt(vtime.Time(140*ms), []int{3, 4}, []int{0, 1, 2, 5, 6}) // shard1's quorum, unreachable
	c.HealAt(vtime.Time(240 * ms))

	res := c.Run(400 * ms)

	fmt.Println("=== cross-shard transfers: crash on shard0, partition on shard1, 400 ms ===")
	fmt.Print(res)
	fmt.Println()
	plane := set.TxnPlane()
	for i, co := range plane.Coordinators() {
		pa := plane.Participants()[i]
		fmt.Printf("%s: coordinated %d (commits %d, aborts %d, deadline %d); prepared %d, lock waits %d, deadline releases %d\n",
			co.Group().Name(), co.Stats.Begins, co.Stats.Commits, co.Stats.Aborts, co.Stats.DeadlineAborts,
			pa.Stats.Prepares, pa.Stats.LockWaits, pa.Stats.DeadlineReleases)
	}
	st := client.Stats
	fmt.Printf("client: %d begun, %d committed, %d aborted (%d on deadlines), %d retries, %d parked\n",
		st.Begun, st.Committed, st.Aborted, st.DeadlineAborts, st.Retries, st.Queued)
	fmt.Printf("latency: avg %s, max %s (lock waits and fault windows included)\n", st.AvgLatency(), st.MaxLatency)
	if err := c.Verify(); err != nil {
		fmt.Printf("ATOMICITY VIOLATION: %v\n", err)
		return
	}
	fmt.Println("atomicity: committed transfers all-or-nothing across shards, aborts wrote nothing, no lock past its deadline")
}
