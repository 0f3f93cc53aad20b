// Package queue implements the eventing substrate of principles 2.4 and 2.6:
// process steps are connected by events carried on reliable or transactional
// queues. Delivery is at-least-once; consumers achieve effective
// exactly-once by being idempotent (the paper cites Helland's
// at-least-once-plus-idempotence recipe). Enqueue and dequeue are always
// local operations — never distributed transactions — even when the logical
// destination is a remote serialization unit (principle 2.6).
//
// Message IDs are assigned at enqueue, so ID order is enqueue order. Three
// dequeue disciplines serve the process engine's scheduling model:
//
//   - Dequeue / DequeueWait: plain FIFO over deliverable messages. A message
//     delayed by retry backoff or EnqueueDelayed is skipped, so later
//     messages — including later messages for the same entity — may be
//     delivered first.
//   - DequeueOrdered / DequeueWaitOrdered: per-entity enqueue order. When an
//     entity's earliest pending message is not yet deliverable, the entity's
//     later messages are held back too (head-of-line blocking per entity,
//     never across entities). This is the intake discipline of the process
//     engine's work-stealing pool: it guarantees an entity's steps reach
//     their serial lane in enqueue order even across backoff redeliveries.
//   - DequeueEntity: the earliest deliverable message for exactly one entity
//     key. A lane owner uses it to keep pulling a hot entity's work directly
//     ("lane hinting") without going through the shared intake.
package queue

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/entity"
)

// Common errors.
var (
	// ErrEmpty is returned by Dequeue when no message is deliverable.
	ErrEmpty = errors.New("queue: empty")
	// ErrUnknownLease is returned by Ack/Nack for an unknown or expired lease.
	ErrUnknownLease = errors.New("queue: unknown lease")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("queue: closed")
	// ErrOverloaded is returned by Enqueue when the queue is past its
	// MaxDepth high-water mark: admission control sheds new work at the
	// door instead of queueing without bound. Only fresh enqueues shed —
	// redeliveries of already-accepted messages always re-enter, so
	// admission control never reorders or drops accepted per-entity work.
	ErrOverloaded = errors.New("queue: overloaded, enqueue shed")
)

// Event is the business-level payload of a message: something that happened
// to an entity, described (per principle 2.8) in terms of the operation
// rather than only its consequence.
type Event struct {
	// Name identifies the event kind, e.g. "order.created" or
	// "inventory.reserved".
	Name string
	// Entity is the key of the entity the event concerns.
	Entity entity.Key
	// TxnID identifies the transaction that emitted the event; consumers use
	// it for idempotence.
	TxnID string
	// Data carries event-specific attributes.
	Data map[string]interface{}
	// Stamp is the HLC timestamp of the emitting transaction.
	Stamp clock.Timestamp
	// Deadline, when non-zero, is the latest time executing this event is
	// still useful (it propagates from the submitting surface — an HTTP
	// request's patience — through the kernel into the queue and lanes).
	// Work past its deadline is dropped, not executed: the queue discards
	// it at dequeue time and the process engine re-checks before running a
	// step. Events emitted by a step inherit the parent's deadline.
	Deadline time.Time
}

// Message is one queued delivery of an event.
type Message struct {
	ID       uint64
	Topic    string
	Event    Event
	Attempts int
	// NotBefore delays delivery until the given time (used for retry backoff
	// and scheduled process steps).
	NotBefore time.Time
	Enqueued  time.Time
}

// Options configure a Queue.
type Options struct {
	// VisibilityTimeout is how long a dequeued message stays invisible before
	// it is redelivered if not acknowledged. Zero uses 30s.
	VisibilityTimeout time.Duration
	// MaxAttempts moves a message to the dead-letter list after this many
	// failed deliveries. Zero uses 10.
	MaxAttempts int
	// Clock supplies time; tests and the simulator inject a fake source.
	Clock func() time.Time
	// DuplicateEvery, when positive, redelivers every Nth acknowledged
	// message once more. It models an unreliable transport with duplicate
	// delivery so tests can demonstrate that idempotent consumers cope
	// (principle 2.4).
	DuplicateEvery int
	// MaxDepth is the admission-control high-water mark: an Enqueue that
	// would grow the pending list past it is shed with ErrOverloaded.
	// Redeliveries (Nack, visibility expiry) are exempt — accepted work is
	// never dropped by backpressure, so per-entity order is untouched.
	// Zero disables shedding (unbounded intake, the historical behaviour).
	MaxDepth int
}

// Queue is a reliable FIFO topic queue with at-least-once delivery,
// visibility timeouts, retry backoff and a dead-letter list. All methods are
// safe for concurrent use.
type Queue struct {
	opts Options
	name string

	mu      sync.Mutex
	cond    *sync.Cond
	seq     clock.Sequence
	ready   []*Message // pending, ascending by ID (= enqueue order)
	leased  map[uint64]*lease
	dead    []*Message
	acked   uint64
	closed  bool
	dupTick int
	// nextExpiry is the earliest lease deadline (zero when unknown): the
	// reclaim scan is skipped until it passes, so dequeues stay O(ready
	// prefix) even with thousands of messages leased into process lanes.
	nextExpiry time.Time
	// leasedByKey counts in-flight leases per entity. DequeueEntity refuses
	// to serve an entity with a lease outstanding: the leased message may be
	// an earlier-enqueued one still in a consumer's hands (e.g. dequeued by
	// the pool dispatcher but not yet routed), and handing out a later one
	// would reorder the entity's steps.
	leasedByKey map[entity.Key]int
	// shed counts enqueues refused by the MaxDepth high-water mark;
	// deadlineDropped counts pending messages discarded because their event
	// deadline passed before delivery.
	shed            uint64
	deadlineDropped uint64
}

type lease struct {
	msg      *Message
	deadline time.Time
}

// New creates a queue with the given name (typically the topic or the
// destination serialization unit).
func New(name string, opts Options) *Queue {
	if opts.VisibilityTimeout <= 0 {
		opts.VisibilityTimeout = 30 * time.Second
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 10
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	q := &Queue{opts: opts, name: name, leased: map[uint64]*lease{}, leasedByKey: map[entity.Key]int{}}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Name returns the queue name.
func (q *Queue) Name() string { return q.name }

// VisibilityTimeout returns the queue's lease duration; consumers that hold
// messages for long stretches size their renewal cadence from it.
func (q *Queue) VisibilityTimeout() time.Duration { return q.opts.VisibilityTimeout }

// Enqueue adds an event for delivery and returns its message id. Enqueue is
// always a local, non-distributed operation.
func (q *Queue) Enqueue(topic string, ev Event) (uint64, error) {
	return q.EnqueueDelayed(topic, ev, 0)
}

// EnqueueDelayed adds an event that becomes deliverable only after delay.
func (q *Queue) EnqueueDelayed(topic string, ev Event, delay time.Duration) (uint64, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0, ErrClosed
	}
	if q.opts.MaxDepth > 0 && len(q.ready) >= q.opts.MaxDepth {
		q.shed++
		return 0, fmt.Errorf("%w: %s at depth %d", ErrOverloaded, q.name, len(q.ready))
	}
	now := q.opts.Clock()
	m := &Message{
		ID:        q.seq.Next(),
		Topic:     topic,
		Event:     ev,
		NotBefore: now.Add(delay),
		Enqueued:  now,
	}
	q.ready = append(q.ready, m)
	q.cond.Broadcast()
	return m.ID, nil
}

// Dequeue returns the next deliverable message for the topic (any topic when
// topic is empty) and leases it for the visibility timeout. The caller must
// Ack or Nack it. Returns ErrEmpty when nothing is deliverable right now.
// Delayed messages are skipped, so Dequeue alone does not preserve
// per-entity order across backoffs; see DequeueOrdered.
func (q *Queue) Dequeue(topic string) (*Message, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dequeueLocked(topic, false)
}

// DequeueOrdered is Dequeue with per-entity head-of-line blocking: a message
// is withheld while an earlier-enqueued message for the same entity is
// pending but not yet deliverable (retry backoff, EnqueueDelayed). Other
// entities are unaffected — one entity backing off never stalls another.
// This is the discipline that keeps an entity's steps flowing to the process
// engine in enqueue order.
func (q *Queue) DequeueOrdered(topic string) (*Message, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dequeueLocked(topic, true)
}

// dequeueLocked scans the pending list — kept in ID (enqueue) order — for
// the first deliverable message of the topic and leases it. With ordered
// set, entities whose earliest pending message is still delayed are skipped
// entirely so their later messages cannot overtake it.
func (q *Queue) dequeueLocked(topic string, ordered bool) (*Message, error) {
	if q.closed {
		return nil, ErrClosed
	}
	now := q.opts.Clock()
	q.reclaimExpiredLocked(now)
	q.dropExpiredLocked(now)
	var blocked map[entity.Key]bool
	for i, m := range q.ready {
		if topic != "" && m.Topic != topic {
			continue
		}
		if m.NotBefore.After(now) {
			if ordered {
				if blocked == nil {
					blocked = map[entity.Key]bool{}
				}
				blocked[m.Event.Entity] = true
			}
			continue
		}
		if ordered && blocked[m.Event.Entity] {
			continue
		}
		return q.leaseLocked(i, now), nil
	}
	return nil, ErrEmpty
}

// DequeueEntity returns the earliest pending message for exactly key on the
// topic. When that message exists but is not deliverable yet (retry backoff,
// delayed enqueue), or when any of the entity's messages is currently
// leased to another consumer — possibly an earlier-enqueued one not yet
// visible here — it returns ErrEmpty rather than skipping ahead: the
// entity's order is never reordered around its own head.
func (q *Queue) DequeueEntity(topic string, key entity.Key) (*Message, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrClosed
	}
	now := q.opts.Clock()
	q.reclaimExpiredLocked(now)
	q.dropExpiredLocked(now)
	if q.leasedByKey[key] > 0 {
		return nil, ErrEmpty
	}
	for i, m := range q.ready {
		if topic != "" && m.Topic != topic {
			continue
		}
		if m.Event.Entity != key {
			continue
		}
		if m.NotBefore.After(now) {
			return nil, ErrEmpty
		}
		return q.leaseLocked(i, now), nil
	}
	return nil, ErrEmpty
}

// leaseLocked removes ready[i] from the pending list and leases it.
func (q *Queue) leaseLocked(i int, now time.Time) *Message {
	m := q.ready[i]
	q.ready = append(q.ready[:i], q.ready[i+1:]...)
	m.Attempts++
	deadline := now.Add(q.opts.VisibilityTimeout)
	if _, exists := q.leased[m.ID]; !exists {
		q.leasedByKey[m.Event.Entity]++
	}
	q.leased[m.ID] = &lease{msg: m, deadline: deadline}
	if q.nextExpiry.IsZero() || deadline.Before(q.nextExpiry) {
		q.nextExpiry = deadline
	}
	cp := *m
	return &cp
}

// dropExpiredLocked discards pending messages whose event deadline has
// passed: the submitter has stopped waiting, so executing the step would be
// work nobody observes. The drop is terminal — no dead-letter, no
// redelivery — and only ever removes whole messages from the pending list,
// so the per-entity order of the work that remains is untouched.
func (q *Queue) dropExpiredLocked(now time.Time) {
	kept := q.ready[:0]
	for _, m := range q.ready {
		if !m.Event.Deadline.IsZero() && now.After(m.Event.Deadline) {
			q.deadlineDropped++
			continue
		}
		kept = append(kept, m)
	}
	q.ready = kept
}

// unleaseLocked drops the per-entity lease count for a settled lease.
func (q *Queue) unleaseLocked(m *Message) {
	if n := q.leasedByKey[m.Event.Entity]; n <= 1 {
		delete(q.leasedByKey, m.Event.Entity)
	} else {
		q.leasedByKey[m.Event.Entity] = n - 1
	}
}

// DequeueWait blocks until a message is available for the topic, the timeout
// elapses (returning ErrEmpty), or the queue is closed.
func (q *Queue) DequeueWait(topic string, timeout time.Duration) (*Message, error) {
	return q.dequeueWait(topic, timeout, false)
}

// DequeueWaitOrdered is DequeueWait with DequeueOrdered's per-entity
// head-of-line blocking. It is the blocking intake of the process engine's
// dispatcher.
func (q *Queue) DequeueWaitOrdered(topic string, timeout time.Duration) (*Message, error) {
	return q.dequeueWait(topic, timeout, true)
}

// testHookBeforeWait, when a test sets it, runs between arming the waker
// and cond.Wait: the window in which a wake-up can be lost.
var testHookBeforeWait func()

func (q *Queue) dequeueWait(topic string, timeout time.Duration, ordered bool) (*Message, error) {
	deadline := time.Now().Add(timeout)
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		m, err := q.dequeueLocked(topic, ordered)
		if err == nil || errors.Is(err, ErrClosed) {
			return m, err
		}
		if time.Now().After(deadline) {
			return nil, ErrEmpty
		}
		// Wake periodically: delayed messages and visibility expiries become
		// deliverable by time passing, not by a Broadcast. The waker takes
		// q.mu, so it cannot broadcast before cond.Wait has registered this
		// waiter and released the lock: a broadcast before that would be
		// lost, and on an idle topic nothing else would wake the waiter.
		waker := time.AfterFunc(5*time.Millisecond, func() {
			q.mu.Lock()
			q.cond.Broadcast()
			q.mu.Unlock()
		})
		if testHookBeforeWait != nil {
			testHookBeforeWait()
		}
		q.cond.Wait()
		waker.Stop()
	}
}

// reclaimExpiredLocked returns leased messages whose visibility timeout has
// passed to the ready list (at-least-once redelivery). The scan is skipped
// while the earliest lease deadline is still in the future, so dequeues do
// not pay O(leased) when a large backlog sits in process lanes.
func (q *Queue) reclaimExpiredLocked(now time.Time) {
	if len(q.leased) == 0 || (!q.nextExpiry.IsZero() && now.Before(q.nextExpiry)) {
		return
	}
	next := time.Time{}
	for id, l := range q.leased {
		if now.After(l.deadline) {
			delete(q.leased, id)
			q.unleaseLocked(l.msg)
			q.requeueLocked(l.msg)
			continue
		}
		if next.IsZero() || l.deadline.Before(next) {
			next = l.deadline
		}
	}
	q.nextExpiry = next
}

func (q *Queue) requeueLocked(m *Message) {
	if m.Attempts >= q.opts.MaxAttempts {
		q.dead = append(q.dead, m)
		return
	}
	q.ready = append(q.ready, m)
	sort.SliceStable(q.ready, func(i, j int) bool { return q.ready[i].ID < q.ready[j].ID })
	q.cond.Broadcast()
}

// Ack acknowledges a leased message, removing it permanently (except when the
// configured duplicate-delivery fault injection re-enqueues it once).
func (q *Queue) Ack(id uint64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	l, ok := q.leased[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownLease, id)
	}
	delete(q.leased, id)
	q.unleaseLocked(l.msg)
	q.acked++
	if q.opts.DuplicateEvery > 0 {
		q.dupTick++
		if q.dupTick%q.opts.DuplicateEvery == 0 {
			// Simulated duplicate delivery of an already-processed message.
			// Re-sort: the duplicate carries its original ID and the pending
			// list must stay in ID order for the ordered dequeues.
			dup := *l.msg
			q.ready = append(q.ready, &dup)
			sort.SliceStable(q.ready, func(i, j int) bool { return q.ready[i].ID < q.ready[j].ID })
			q.cond.Broadcast()
		}
	}
	return nil
}

// ExtendLease renews the visibility lease of a dequeued message: its
// redelivery deadline moves to a fresh VisibilityTimeout from now. Lane
// owners renew the leases of the messages they hold, so a backlog that
// takes longer than the visibility timeout to drain is neither reclaimed
// for redelivery (which would thrash — the lane still holds the message)
// nor pushed attempt by attempt toward a spurious dead-lettering.
func (q *Queue) ExtendLease(id uint64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	l, ok := q.leased[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownLease, id)
	}
	l.deadline = q.opts.Clock().Add(q.opts.VisibilityTimeout)
	return nil
}

// Nack returns a leased message to the queue after the given backoff. After
// MaxAttempts the message is dead-lettered instead.
func (q *Queue) Nack(id uint64, backoff time.Duration) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	l, ok := q.leased[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownLease, id)
	}
	delete(q.leased, id)
	q.unleaseLocked(l.msg)
	l.msg.NotBefore = q.opts.Clock().Add(backoff)
	q.requeueLocked(l.msg)
	return nil
}

// Len returns the number of deliverable or delayed messages (excluding leased
// and dead-lettered ones).
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.ready)
}

// InFlight returns the number of currently leased messages.
func (q *Queue) InFlight() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.leased)
}

// DeadLetters returns a copy of the dead-letter list.
func (q *Queue) DeadLetters() []Message {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Message, len(q.dead))
	for i, m := range q.dead {
		out[i] = *m
	}
	return out
}

// Acked returns the number of acknowledged deliveries.
func (q *Queue) Acked() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.acked
}

// Shed returns the number of enqueues refused by the MaxDepth high-water
// mark (admission control).
func (q *Queue) Shed() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.shed
}

// DeadlineDropped returns the number of pending messages discarded because
// their event deadline passed before delivery.
func (q *Queue) DeadlineDropped() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.deadlineDropped
}

// Close shuts the queue; blocked DequeueWait calls return ErrClosed.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// Outbox is the transactional half of the eventing model: events staged
// during a transaction are published to the queue only if the transaction
// commits, and discarded if it rolls back. This is how "a committed
// transaction may enqueue events that result in additional process steps"
// (principle 2.4) without a distributed commit.
type Outbox struct {
	mu     sync.Mutex
	staged []staged
}

type staged struct {
	topic string
	ev    Event
	delay time.Duration
}

// NewOutbox returns an empty outbox.
func NewOutbox() *Outbox { return &Outbox{} }

// Stage records an event to publish if the owning transaction commits.
func (o *Outbox) Stage(topic string, ev Event) { o.StageDelayed(topic, ev, 0) }

// StageDelayed records a delayed event.
func (o *Outbox) StageDelayed(topic string, ev Event, delay time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.staged = append(o.staged, staged{topic: topic, ev: ev, delay: delay})
}

// Len returns the number of staged events.
func (o *Outbox) Len() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.staged)
}

// Publish flushes all staged events to the queue (transaction committed) and
// returns the assigned message ids.
func (o *Outbox) Publish(q *Queue) ([]uint64, error) {
	o.mu.Lock()
	staged := o.staged
	o.staged = nil
	o.mu.Unlock()
	ids := make([]uint64, 0, len(staged))
	for _, s := range staged {
		id, err := q.EnqueueDelayed(s.topic, s.ev, s.delay)
		if err != nil {
			return ids, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// Discard drops all staged events (transaction rolled back) and returns how
// many were dropped.
func (o *Outbox) Discard() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := len(o.staged)
	o.staged = nil
	return n
}

// Dedup tracks processed identities so at-least-once consumers can make
// their handling idempotent: Seen returns true the second time an id is
// presented. The zero value is not usable; construct with NewDedup.
type Dedup struct {
	mu   sync.Mutex
	seen map[string]bool
	// order retains insertion order so the window can be bounded.
	order []string
	limit int
}

// NewDedup creates a dedup window retaining at most limit ids (0 means
// unbounded).
func NewDedup(limit int) *Dedup {
	return &Dedup{seen: map[string]bool{}, limit: limit}
}

// Seen records id and reports whether it had been seen before.
func (d *Dedup) Seen(id string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.seen[id] {
		return true
	}
	d.seen[id] = true
	d.order = append(d.order, id)
	if d.limit > 0 && len(d.order) > d.limit {
		evict := d.order[0]
		d.order = d.order[1:]
		delete(d.seen, evict)
	}
	return false
}

// Size returns the number of ids currently tracked.
func (d *Dedup) Size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.seen)
}

// Broker routes events to named queues (one queue per destination
// serialization unit or per topic family). It keeps enqueue local: the
// sender writes to its broker, and a shipping goroutine (the replication or
// process infrastructure) moves messages between brokers asynchronously.
type Broker struct {
	opts Options

	mu     sync.RWMutex
	queues map[string]*Queue
}

// NewBroker creates an empty broker whose queues share opts.
func NewBroker(opts Options) *Broker {
	return &Broker{opts: opts, queues: map[string]*Queue{}}
}

// Queue returns the named queue, creating it on first use.
func (b *Broker) Queue(name string) *Queue {
	b.mu.Lock()
	defer b.mu.Unlock()
	q, ok := b.queues[name]
	if !ok {
		q = New(name, b.opts)
		b.queues[name] = q
	}
	return q
}

// Names returns the names of all queues, sorted.
func (b *Broker) Names() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.queues))
	for n := range b.queues {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Depth returns the total number of pending messages across all queues.
func (b *Broker) Depth() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	total := 0
	for _, q := range b.queues {
		total += q.Len()
	}
	return total
}

// Close closes every queue.
func (b *Broker) Close() {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for _, q := range b.queues {
		q.Close()
	}
}

// Consume runs a handler loop on one queue: it dequeues messages for topic,
// invokes handler, acks on nil error and nacks with the given backoff
// otherwise. It returns when the queue is closed or stop is closed. Handlers
// are expected to be idempotent; Consume pairs naturally with Dedup.
func Consume(q *Queue, topic string, stop <-chan struct{}, backoff time.Duration, handler func(*Message) error) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		m, err := q.DequeueWait(topic, 50*time.Millisecond)
		if errors.Is(err, ErrClosed) {
			return
		}
		if errors.Is(err, ErrEmpty) {
			continue
		}
		if err != nil {
			return
		}
		if herr := handler(m); herr != nil {
			_ = q.Nack(m.ID, backoff)
			continue
		}
		_ = q.Ack(m.ID)
	}
}
