package queue

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/entity"
)

func ev(name, key string) Event {
	return Event{Name: name, Entity: entity.Key{Type: "Order", ID: key}, TxnID: "txn-" + key}
}

func TestEnqueueDequeueAckFIFO(t *testing.T) {
	q := New("unit-1", Options{})
	for i := 0; i < 3; i++ {
		if _, err := q.Enqueue("orders", ev("order.created", fmt.Sprintf("O%d", i))); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 3; i++ {
		m, err := q.Dequeue("orders")
		if err != nil {
			t.Fatalf("Dequeue: %v", err)
		}
		want := fmt.Sprintf("O%d", i)
		if m.Event.Entity.ID != want {
			t.Fatalf("FIFO violated: got %s, want %s", m.Event.Entity.ID, want)
		}
		if err := q.Ack(m.ID); err != nil {
			t.Fatalf("Ack: %v", err)
		}
	}
	if _, err := q.Dequeue("orders"); !errors.Is(err, ErrEmpty) {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
	if q.Acked() != 3 {
		t.Fatalf("Acked = %d", q.Acked())
	}
}

func TestDequeueTopicFilter(t *testing.T) {
	q := New("unit-1", Options{})
	q.Enqueue("orders", ev("order.created", "O1"))
	q.Enqueue("inventory", ev("inventory.reserved", "I1"))
	m, err := q.Dequeue("inventory")
	if err != nil || m.Event.Name != "inventory.reserved" {
		t.Fatalf("topic filter broken: %v %v", m, err)
	}
	q.Ack(m.ID)
	// Empty topic matches anything.
	m, err = q.Dequeue("")
	if err != nil || m.Event.Name != "order.created" {
		t.Fatalf("wildcard dequeue broken: %v %v", m, err)
	}
}

func TestVisibilityTimeoutRedelivery(t *testing.T) {
	now := time.Unix(0, 0)
	q := New("unit-1", Options{VisibilityTimeout: 10 * time.Second, Clock: func() time.Time { return now }})
	q.Enqueue("t", ev("e", "1"))
	m1, err := q.Dequeue("t")
	if err != nil {
		t.Fatalf("Dequeue: %v", err)
	}
	// Not acked; before the timeout nothing is deliverable.
	if _, err := q.Dequeue("t"); !errors.Is(err, ErrEmpty) {
		t.Fatalf("message visible during lease: %v", err)
	}
	if q.InFlight() != 1 {
		t.Fatalf("InFlight = %d", q.InFlight())
	}
	// After the timeout the message is redelivered (at-least-once).
	now = now.Add(11 * time.Second)
	m2, err := q.Dequeue("t")
	if err != nil {
		t.Fatalf("redelivery failed: %v", err)
	}
	if m2.ID != m1.ID {
		t.Fatalf("redelivered a different message: %d vs %d", m2.ID, m1.ID)
	}
	if m2.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", m2.Attempts)
	}
	// Acking the expired first lease fails; acking the new one succeeds.
	if err := q.Ack(m2.ID); err != nil {
		t.Fatalf("Ack after redelivery: %v", err)
	}
}

func TestAckUnknownLease(t *testing.T) {
	q := New("unit-1", Options{})
	if err := q.Ack(42); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("want ErrUnknownLease, got %v", err)
	}
	if err := q.Nack(42, time.Second); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("want ErrUnknownLease, got %v", err)
	}
}

func TestNackBackoffAndRedelivery(t *testing.T) {
	now := time.Unix(0, 0)
	q := New("unit-1", Options{Clock: func() time.Time { return now }})
	q.Enqueue("t", ev("e", "1"))
	m, _ := q.Dequeue("t")
	if err := q.Nack(m.ID, 5*time.Second); err != nil {
		t.Fatalf("Nack: %v", err)
	}
	if _, err := q.Dequeue("t"); !errors.Is(err, ErrEmpty) {
		t.Fatal("nacked message visible before backoff")
	}
	now = now.Add(6 * time.Second)
	m2, err := q.Dequeue("t")
	if err != nil {
		t.Fatalf("Dequeue after backoff: %v", err)
	}
	if m2.Attempts != 2 {
		t.Fatalf("Attempts = %d", m2.Attempts)
	}
}

func TestDeadLetterAfterMaxAttempts(t *testing.T) {
	now := time.Unix(0, 0)
	q := New("unit-1", Options{MaxAttempts: 3, Clock: func() time.Time { return now }})
	q.Enqueue("t", ev("poison", "1"))
	for i := 0; i < 3; i++ {
		m, err := q.Dequeue("t")
		if err != nil {
			t.Fatalf("Dequeue %d: %v", i, err)
		}
		if err := q.Nack(m.ID, 0); err != nil {
			t.Fatalf("Nack %d: %v", i, err)
		}
	}
	if _, err := q.Dequeue("t"); !errors.Is(err, ErrEmpty) {
		t.Fatal("poison message still deliverable")
	}
	dead := q.DeadLetters()
	if len(dead) != 1 || dead[0].Event.Name != "poison" {
		t.Fatalf("dead letters = %+v", dead)
	}
}

func TestDelayedEnqueue(t *testing.T) {
	now := time.Unix(0, 0)
	q := New("unit-1", Options{Clock: func() time.Time { return now }})
	q.EnqueueDelayed("t", ev("e", "1"), 10*time.Second)
	if _, err := q.Dequeue("t"); !errors.Is(err, ErrEmpty) {
		t.Fatal("delayed message delivered early")
	}
	now = now.Add(11 * time.Second)
	if _, err := q.Dequeue("t"); err != nil {
		t.Fatalf("delayed message not delivered: %v", err)
	}
}

func TestCloseRejectsEnqueue(t *testing.T) {
	q := New("unit-1", Options{})
	q.Close()
	if _, err := q.Enqueue("t", ev("e", "1")); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if _, err := q.Dequeue("t"); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestDequeueWaitDeliversWhenMessageArrives(t *testing.T) {
	q := New("unit-1", Options{})
	done := make(chan *Message, 1)
	go func() {
		m, err := q.DequeueWait("t", 2*time.Second)
		if err != nil {
			t.Errorf("DequeueWait: %v", err)
		}
		done <- m
	}()
	time.Sleep(20 * time.Millisecond)
	q.Enqueue("t", ev("late", "1"))
	select {
	case m := <-done:
		if m == nil || m.Event.Name != "late" {
			t.Fatalf("wrong message: %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("DequeueWait never returned")
	}
}

func TestDequeueWaitTimeout(t *testing.T) {
	q := New("unit-1", Options{})
	start := time.Now()
	_, err := q.DequeueWait("t", 30*time.Millisecond)
	if !errors.Is(err, ErrEmpty) {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("timeout much longer than requested")
	}
}

// TestDequeueWaitWakerFiringBeforeWait: the waiter is held past the waker's
// 5ms between arming it and cond.Wait, so the waker fires inside that window.
// Its broadcast must still reach the waiter; on an idle topic nothing else
// will ever wake it.
func TestDequeueWaitWakerFiringBeforeWait(t *testing.T) {
	testHookBeforeWait = func() { time.Sleep(20 * time.Millisecond) }
	defer func() { testHookBeforeWait = nil }()
	q := New("unit-1", Options{})
	defer q.Close() // unblocks a stuck waiter if the test fails
	errc := make(chan error, 1)
	go func() {
		_, err := q.DequeueWait("idle", time.Millisecond)
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrEmpty) {
			t.Fatalf("want ErrEmpty, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("DequeueWait on an idle topic lost the wake-up that fired before cond.Wait")
	}
}

// TestDequeueWaitIdleNeverLosesItsWakeup: a waiter on an idle topic relies
// on its periodic waker alone — no enqueue will ever broadcast. Many short
// waits on one CPU, each waiter alone on its queue so no other waiter's
// waker can rescue it, must all return ErrEmpty within a bound; a wake-up
// lost between arming the timer and cond.Wait would sleep forever.
func TestDequeueWaitIdleNeverLosesItsWakeup(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const waiters, calls = 16, 60
	const bound = 2 * time.Second
	var progress [waiters]atomic.Int64 // unix nanos of each waiter's last return
	var finished atomic.Int32
	failures := make(chan error, waiters)
	queues := make([]*Queue, waiters)
	for w := range queues {
		queues[w] = New(fmt.Sprintf("unit-%d", w), Options{})
		defer queues[w].Close() // unblocks a stuck waiter if the test fails
		progress[w].Store(time.Now().UnixNano())
		go func(w int) {
			defer finished.Add(1)
			for i := 0; i < calls; i++ {
				if _, err := queues[w].DequeueWait("idle", time.Millisecond); !errors.Is(err, ErrEmpty) {
					failures <- fmt.Errorf("waiter %d call %d: want ErrEmpty, got %v", w, i, err)
					return
				}
				progress[w].Store(time.Now().UnixNano())
			}
		}(w)
	}
	for finished.Load() < waiters {
		select {
		case err := <-failures:
			t.Fatal(err)
		case <-time.After(10 * time.Millisecond):
		}
		for w := range progress {
			if since := time.Since(time.Unix(0, progress[w].Load())); since > bound {
				t.Fatalf("waiter %d stuck in DequeueWait for %v on an idle topic (lost wake-up)", w, since)
			}
		}
	}
	select {
	case err := <-failures:
		t.Fatal(err)
	default:
	}
}

func TestDequeueWaitClose(t *testing.T) {
	q := New("unit-1", Options{})
	errc := make(chan error, 1)
	go func() {
		_, err := q.DequeueWait("t", 5*time.Second)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("DequeueWait did not observe Close")
	}
}

func TestOutboxPublishOnCommit(t *testing.T) {
	q := New("unit-1", Options{})
	o := NewOutbox()
	o.Stage("orders", ev("order.created", "O1"))
	o.StageDelayed("orders", ev("order.reminder", "O1"), time.Hour)
	if o.Len() != 2 {
		t.Fatalf("staged = %d", o.Len())
	}
	// Nothing visible before commit.
	if q.Len() != 0 {
		t.Fatal("staged events leaked before commit")
	}
	ids, err := o.Publish(q)
	if err != nil || len(ids) != 2 {
		t.Fatalf("Publish: %v ids=%v", err, ids)
	}
	if q.Len() != 2 {
		t.Fatalf("queue len = %d", q.Len())
	}
	if o.Len() != 0 {
		t.Fatal("outbox not drained by Publish")
	}
}

func TestOutboxDiscardOnRollback(t *testing.T) {
	q := New("unit-1", Options{})
	o := NewOutbox()
	o.Stage("orders", ev("order.created", "O1"))
	if n := o.Discard(); n != 1 {
		t.Fatalf("Discard = %d", n)
	}
	if q.Len() != 0 || o.Len() != 0 {
		t.Fatal("rolled-back events leaked")
	}
}

func TestOutboxPublishToClosedQueue(t *testing.T) {
	q := New("unit-1", Options{})
	q.Close()
	o := NewOutbox()
	o.Stage("t", ev("e", "1"))
	if _, err := o.Publish(q); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestDedup(t *testing.T) {
	d := NewDedup(0)
	if d.Seen("a") {
		t.Fatal("first sighting reported as seen")
	}
	if !d.Seen("a") {
		t.Fatal("second sighting not reported")
	}
	if d.Seen("b") {
		t.Fatal("unrelated id reported as seen")
	}
	if d.Size() != 2 {
		t.Fatalf("Size = %d", d.Size())
	}
}

func TestDedupBoundedWindow(t *testing.T) {
	d := NewDedup(2)
	d.Seen("a")
	d.Seen("b")
	d.Seen("c") // evicts a
	if d.Size() != 2 {
		t.Fatalf("Size = %d, want 2", d.Size())
	}
	if d.Seen("a") {
		t.Fatal("evicted id should read as unseen")
	}
}

func TestDuplicateDeliveryWithIdempotentConsumer(t *testing.T) {
	// The queue duplicates every 2nd acked message; an idempotent consumer
	// (dedup on TxnID) still applies each event exactly once.
	q := New("unit-1", Options{DuplicateEvery: 2})
	const n = 20
	for i := 0; i < n; i++ {
		q.Enqueue("t", Event{Name: "deposit", TxnID: fmt.Sprintf("txn-%d", i)})
	}
	d := NewDedup(0)
	applied := 0
	deliveries := 0
	for {
		m, err := q.Dequeue("t")
		if errors.Is(err, ErrEmpty) {
			break
		}
		if err != nil {
			t.Fatalf("Dequeue: %v", err)
		}
		deliveries++
		if !d.Seen(m.Event.TxnID) {
			applied++
		}
		q.Ack(m.ID)
	}
	if deliveries <= n {
		t.Fatalf("expected duplicate deliveries, got %d for %d messages", deliveries, n)
	}
	if applied != n {
		t.Fatalf("idempotent consumer applied %d, want %d", applied, n)
	}
}

func TestBrokerQueuesAndDepth(t *testing.T) {
	b := NewBroker(Options{})
	q1 := b.Queue("unit-1")
	q2 := b.Queue("unit-2")
	if b.Queue("unit-1") != q1 {
		t.Fatal("broker returned a different queue instance")
	}
	q1.Enqueue("t", ev("e", "1"))
	q2.Enqueue("t", ev("e", "2"))
	q2.Enqueue("t", ev("e", "3"))
	if b.Depth() != 3 {
		t.Fatalf("Depth = %d", b.Depth())
	}
	names := b.Names()
	if len(names) != 2 || names[0] != "unit-1" || names[1] != "unit-2" {
		t.Fatalf("Names = %v", names)
	}
	b.Close()
	if _, err := q1.Enqueue("t", ev("e", "4")); !errors.Is(err, ErrClosed) {
		t.Fatal("broker Close did not close queues")
	}
}

func TestConsumeLoop(t *testing.T) {
	q := New("unit-1", Options{})
	const n = 10
	for i := 0; i < n; i++ {
		q.Enqueue("t", Event{Name: "e", TxnID: fmt.Sprintf("%d", i)})
	}
	var handled atomic.Int64
	var failedOnce atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		Consume(q, "t", stop, 0, func(m *Message) error {
			// Fail the first delivery of txn "3" to exercise the nack path.
			if m.Event.TxnID == "3" && !failedOnce.Swap(true) {
				return errors.New("transient failure")
			}
			handled.Add(1)
			return nil
		})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for handled.Load() < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	q.Close()
	wg.Wait()
	if handled.Load() != n {
		t.Fatalf("handled = %d, want %d", handled.Load(), n)
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	q := New("unit-1", Options{VisibilityTimeout: time.Minute})
	const producers, perProducer, consumers = 4, 200, 4
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Enqueue("t", Event{Name: "e", TxnID: fmt.Sprintf("%d-%d", p, i)})
			}
		}(p)
	}
	var consumed atomic.Int64
	var cwg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			Consume(q, "t", stop, 0, func(*Message) error {
				consumed.Add(1)
				return nil
			})
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for consumed.Load() < producers*perProducer && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	q.Close()
	cwg.Wait()
	if consumed.Load() != producers*perProducer {
		t.Fatalf("consumed = %d, want %d", consumed.Load(), producers*perProducer)
	}
}

// Property: for any enqueue count, dequeue+ack drains exactly that many
// messages and never invents or loses one (reliable delivery).
func TestReliableDeliveryProperty(t *testing.T) {
	f := func(count uint8) bool {
		q := New("unit", Options{})
		n := int(count % 64)
		for i := 0; i < n; i++ {
			q.Enqueue("t", Event{TxnID: fmt.Sprintf("%d", i)})
		}
		seen := map[string]bool{}
		for {
			m, err := q.Dequeue("t")
			if errors.Is(err, ErrEmpty) {
				break
			}
			if err != nil {
				return false
			}
			if seen[m.Event.TxnID] {
				return false // duplicate without fault injection
			}
			seen[m.Event.TxnID] = true
			q.Ack(m.ID)
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDequeueOrderedBlocksDelayedEntityHead(t *testing.T) {
	now := time.Unix(0, 0)
	q := New("unit-1", Options{Clock: func() time.Time { return now }})
	// Entity X's head is delayed (a retry backoff in flight); a later X
	// message and an unrelated Y message are immediately deliverable.
	q.EnqueueDelayed("t", ev("step", "X"), 50*time.Millisecond)
	q.Enqueue("t", ev("step", "X"))
	q.Enqueue("t", ev("step", "Y"))

	// Plain Dequeue would hand out the second X message here; the ordered
	// dequeue must hold X back entirely and serve Y.
	m, err := q.DequeueOrdered("t")
	if err != nil || m.Event.Entity.ID != "Y" {
		t.Fatalf("DequeueOrdered = %v, %v; want Y", m, err)
	}
	if _, err := q.DequeueOrdered("t"); !errors.Is(err, ErrEmpty) {
		t.Fatalf("X delivered around its delayed head: %v", err)
	}
	// Once the head becomes deliverable, X's messages come out in enqueue
	// order.
	now = now.Add(time.Second)
	first, err := q.DequeueOrdered("t")
	if err != nil {
		t.Fatalf("DequeueOrdered after delay: %v", err)
	}
	second, err := q.DequeueOrdered("t")
	if err != nil {
		t.Fatalf("DequeueOrdered after delay: %v", err)
	}
	if first.ID > second.ID || first.Event.Entity.ID != "X" || second.Event.Entity.ID != "X" {
		t.Fatalf("X delivered out of order: %d then %d", first.ID, second.ID)
	}
}

func TestDequeueEntityServesOneKeyInOrder(t *testing.T) {
	q := New("unit-1", Options{})
	q.Enqueue("t", ev("step", "X"))
	q.Enqueue("t", ev("step", "Y"))
	q.Enqueue("t", ev("step", "X"))
	keyX := entity.Key{Type: "Order", ID: "X"}

	m1, err := q.DequeueEntity("t", keyX)
	if err != nil || m1.Event.Entity.ID != "X" {
		t.Fatalf("DequeueEntity = %v, %v", m1, err)
	}
	// While m1 is leased the entity is blocked (see
	// TestDequeueEntityBlockedWhileEntityLeased); settle it first, the way a
	// lane acks its head before hinting for more.
	if err := q.Ack(m1.ID); err != nil {
		t.Fatal(err)
	}
	m2, err := q.DequeueEntity("t", keyX)
	if err != nil || m2.Event.Entity.ID != "X" || m2.ID < m1.ID {
		t.Fatalf("DequeueEntity second = %v, %v", m2, err)
	}
	if err := q.Ack(m2.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := q.DequeueEntity("t", keyX); !errors.Is(err, ErrEmpty) {
		t.Fatalf("want ErrEmpty for drained key, got %v", err)
	}
	// Y was never touched.
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want Y still pending", q.Len())
	}
}

func TestDequeueEntityRespectsDelayedHead(t *testing.T) {
	now := time.Unix(0, 0)
	q := New("unit-1", Options{Clock: func() time.Time { return now }})
	q.EnqueueDelayed("t", ev("step", "X"), 50*time.Millisecond)
	q.Enqueue("t", ev("step", "X"))
	keyX := entity.Key{Type: "Order", ID: "X"}
	// The entity's earliest message is delayed: nothing may be served, not
	// even the later deliverable one.
	if _, err := q.DequeueEntity("t", keyX); !errors.Is(err, ErrEmpty) {
		t.Fatalf("DequeueEntity skipped a delayed head: %v", err)
	}
	now = now.Add(time.Second)
	m, err := q.DequeueEntity("t", keyX)
	if err != nil || m.Attempts != 1 {
		t.Fatalf("DequeueEntity after delay = %v, %v", m, err)
	}
}

func TestLeaseReclaimWithManyLeases(t *testing.T) {
	// The nextExpiry fast path must not break redelivery: lease a batch,
	// expire them all, and verify every message comes back.
	now := time.Unix(0, 0)
	q := New("unit-1", Options{VisibilityTimeout: 10 * time.Second, Clock: func() time.Time { return now }})
	const n = 64
	for i := 0; i < n; i++ {
		q.Enqueue("t", ev("step", fmt.Sprintf("K%d", i)))
	}
	for i := 0; i < n; i++ {
		if _, err := q.Dequeue("t"); err != nil {
			t.Fatalf("Dequeue: %v", err)
		}
	}
	if q.InFlight() != n {
		t.Fatalf("InFlight = %d", q.InFlight())
	}
	now = now.Add(11 * time.Second)
	seen := 0
	for {
		m, err := q.Dequeue("t")
		if errors.Is(err, ErrEmpty) {
			break
		}
		if err != nil {
			t.Fatalf("Dequeue: %v", err)
		}
		if m.Attempts != 2 {
			t.Fatalf("Attempts = %d, want 2", m.Attempts)
		}
		seen++
	}
	if seen != n {
		t.Fatalf("redelivered %d of %d", seen, n)
	}
}

func TestDequeueEntityBlockedWhileEntityLeased(t *testing.T) {
	// The lane-hinting safety rule: while any of an entity's messages is
	// leased to another consumer (e.g. the pool dispatcher between dequeue
	// and route), DequeueEntity must refuse — handing out a later message
	// would let it overtake the in-flight earlier one.
	q := New("unit-1", Options{})
	q.Enqueue("t", ev("step", "X"))
	q.Enqueue("t", ev("step", "X"))
	keyX := entity.Key{Type: "Order", ID: "X"}
	m1, err := q.Dequeue("t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.DequeueEntity("t", keyX); !errors.Is(err, ErrEmpty) {
		t.Fatalf("DequeueEntity served around a leased earlier message: %v", err)
	}
	if err := q.Ack(m1.ID); err != nil {
		t.Fatal(err)
	}
	m2, err := q.DequeueEntity("t", keyX)
	if err != nil || m2.ID <= m1.ID {
		t.Fatalf("DequeueEntity after settle = %v, %v", m2, err)
	}
}

func TestMaxDepthShedsFreshEnqueuesTyped(t *testing.T) {
	q := New("unit-1", Options{MaxDepth: 2})
	for i := 0; i < 2; i++ {
		if _, err := q.Enqueue("t", ev("e", fmt.Sprintf("%d", i))); err != nil {
			t.Fatalf("Enqueue %d: %v", i, err)
		}
	}
	if _, err := q.Enqueue("t", ev("e", "over")); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("enqueue past high-water mark: err = %v, want ErrOverloaded", err)
	}
	if q.Shed() != 1 {
		t.Fatalf("Shed = %d, want 1", q.Shed())
	}
	// Draining makes room: the shed is backpressure, not a closed door.
	m, err := q.Dequeue("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Ack(m.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue("t", ev("e", "retry")); err != nil {
		t.Fatalf("enqueue after drain: %v", err)
	}
}

// Redeliveries — nacks and lease expiries — are exempt from the high-water
// mark: admission control sheds only work the queue never accepted, so
// accepted per-entity work is never dropped or reordered by overload.
func TestRedeliveryExemptFromMaxDepth(t *testing.T) {
	now := time.Unix(0, 0)
	q := New("unit-1", Options{MaxDepth: 1, VisibilityTimeout: 10 * time.Second, Clock: func() time.Time { return now }})
	if _, err := q.Enqueue("t", ev("e", "1")); err != nil {
		t.Fatal(err)
	}
	m, err := q.Dequeue("t")
	if err != nil {
		t.Fatal(err)
	}
	// The queue is at capacity again with a second accepted message.
	if _, err := q.Enqueue("t", ev("e", "2")); err != nil {
		t.Fatal(err)
	}
	// Nack of the leased message re-enters past the mark without shedding.
	if err := q.Nack(m.ID, 0); err != nil {
		t.Fatalf("nack into a full queue: %v", err)
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (redelivery admitted)", q.Len())
	}
	// A fresh enqueue is shed.
	if _, err := q.Enqueue("t", ev("e", "3")); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("fresh enqueue: err = %v, want ErrOverloaded", err)
	}
	// Lease-expiry requeue is exempt too.
	m2, err := q.Dequeue("t")
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(11 * time.Second)
	m3, err := q.Dequeue("t")
	if err != nil {
		t.Fatalf("expired lease did not redeliver into the full queue: %v", err)
	}
	_ = m2
	_ = m3
}

// A message whose deadline passed while queued is dropped at dequeue — work
// nobody is waiting for anymore is not executed.
func TestDeadlineExpiredDroppedAtDequeue(t *testing.T) {
	now := time.Unix(0, 0)
	q := New("unit-1", Options{Clock: func() time.Time { return now }})
	stale := ev("e", "stale")
	stale.Deadline = now.Add(5 * time.Second)
	if _, err := q.Enqueue("t", stale); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue("t", ev("e", "fresh")); err != nil {
		t.Fatal(err)
	}
	now = now.Add(6 * time.Second)
	m, err := q.Dequeue("t")
	if err != nil {
		t.Fatal(err)
	}
	if m.Event.Entity.ID != "fresh" {
		t.Fatalf("dequeued %s, want the un-deadlined message", m.Event.Entity.ID)
	}
	if q.DeadlineDropped() != 1 {
		t.Fatalf("DeadlineDropped = %d, want 1", q.DeadlineDropped())
	}
	// The drop is terminal: not redelivered, not dead-lettered.
	if len(q.DeadLetters()) != 0 {
		t.Fatalf("deadline drop went to the dead letter queue: %v", q.DeadLetters())
	}
	if _, err := q.Dequeue("t"); !errors.Is(err, ErrEmpty) {
		t.Fatalf("stale message still deliverable: %v", err)
	}
}

// ExtendLease pushes a held message's visibility deadline out, so a lane
// owner working through a deep backlog keeps its claim.
func TestExtendLeaseRenewsVisibility(t *testing.T) {
	now := time.Unix(0, 0)
	q := New("unit-1", Options{VisibilityTimeout: 10 * time.Second, Clock: func() time.Time { return now }})
	if _, err := q.Enqueue("t", ev("e", "1")); err != nil {
		t.Fatal(err)
	}
	m, err := q.Dequeue("t")
	if err != nil {
		t.Fatal(err)
	}
	// Renew at 8s: the lease now runs to 18s.
	now = now.Add(8 * time.Second)
	if err := q.ExtendLease(m.ID); err != nil {
		t.Fatalf("ExtendLease: %v", err)
	}
	// 16s — past the original lease, inside the renewed one.
	now = now.Add(8 * time.Second)
	if _, err := q.Dequeue("t"); !errors.Is(err, ErrEmpty) {
		t.Fatalf("renewed lease expired early: %v", err)
	}
	// 19s — past the renewed lease: redelivered.
	now = now.Add(3 * time.Second)
	m2, err := q.Dequeue("t")
	if err != nil || m2.ID != m.ID {
		t.Fatalf("redelivery after renewed lease expired: %v %v", m2, err)
	}
	if err := q.ExtendLease(999); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("ExtendLease on unknown lease: err = %v, want ErrUnknownLease", err)
	}
}
