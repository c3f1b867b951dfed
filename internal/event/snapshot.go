package event

import (
	"fmt"
	"sort"
)

// Snapshot support for the event spine. A checkpoint must carry the
// pending event set across a process boundary, which means handler
// pointers have to become stable integers. The Registry assigns IDs in
// registration order; as long as the machine registers its handlers in a
// deterministic order (the gpu package registers SMs by index, then the
// CTA controller, then the memory hierarchy), the same ID maps to the
// same component in the capturing and the restoring process.

// Registry maps event Handlers to stable integer IDs for serialization.
type Registry struct {
	ids      map[Handler]int32
	handlers []Handler
}

// NewRegistry returns an empty handler registry.
func NewRegistry() *Registry {
	return &Registry{ids: make(map[Handler]int32)}
}

// Register assigns the next ID to h. Registration order defines the ID
// space, so callers must register handlers in a deterministic order.
func (r *Registry) Register(h Handler) {
	if h == nil {
		panic("event: Register(nil)")
	}
	if _, ok := r.ids[h]; ok {
		return
	}
	r.ids[h] = int32(len(r.handlers))
	r.handlers = append(r.handlers, h)
}

// Handler returns the handler registered under id.
func (r *Registry) Handler(id int32) (Handler, bool) {
	if id < 0 || int(id) >= len(r.handlers) {
		return nil, false
	}
	return r.handlers[id], true
}

// EventRec is one serialized pending event. Seq preserves the original
// scheduling order so same-cycle tie-breaks replay identically.
type EventRec struct {
	Cycle int64  `json:"cycle"`
	Seq   uint64 `json:"seq"`
	H     int32  `json:"h"`
	Kind  uint8  `json:"kind"`
	A     uint32 `json:"a"`
	B     uint32 `json:"b"`
}

// CompletionRec is a serialized Completion; H is -1 for the zero (invalid)
// Completion that writes carry.
type CompletionRec struct {
	H    int32  `json:"h"`
	Kind uint8  `json:"kind"`
	A    uint32 `json:"a"`
	B    uint32 `json:"b"`
}

// EncodeCompletion serializes c against the registry.
func (r *Registry) EncodeCompletion(c Completion) (CompletionRec, error) {
	if !c.Valid() {
		return CompletionRec{H: -1}, nil
	}
	id, ok := r.ids[c.H]
	if !ok {
		return CompletionRec{}, fmt.Errorf("event: completion handler %T not registered", c.H)
	}
	return CompletionRec{H: id, Kind: c.Kind, A: c.A, B: c.B}, nil
}

// DecodeCompletion reconstructs a Completion from its record.
func (r *Registry) DecodeCompletion(rec CompletionRec) (Completion, error) {
	if rec.H < 0 {
		return Completion{}, nil
	}
	h, ok := r.Handler(rec.H)
	if !ok {
		return Completion{}, fmt.Errorf("event: completion handler id %d out of range", rec.H)
	}
	return Completion{H: h, Kind: rec.Kind, A: rec.A, B: rec.B}, nil
}

// CaptureEvents serializes every pending event in (cycle, seq) order,
// along with the clock and the sequence counter. It errors on a pending
// event whose handler is not registered.
func (q *Queue) CaptureEvents(reg *Registry) (now int64, seq uint64, recs []EventRec, err error) {
	encode := func(it *item) error {
		id, ok := reg.ids[it.h]
		if !ok {
			return fmt.Errorf("event: pending event handler %T not registered", it.h)
		}
		recs = append(recs, EventRec{
			Cycle: it.cycle, Seq: it.seq,
			H: id, Kind: it.kind, A: it.a, B: it.b,
		})
		return nil
	}
	recs = make([]EventRec, 0, q.pending)
	if q.useHeap {
		for i := range q.heap {
			if err := encode(&q.heap[i]); err != nil {
				return 0, 0, nil, err
			}
		}
	} else {
		for b := range q.buckets {
			bk := q.buckets[b]
			for i := range bk {
				if err := encode(&bk[i]); err != nil {
					return 0, 0, nil, err
				}
			}
		}
		for i := range q.overflow {
			if err := encode(&q.overflow[i]); err != nil {
				return 0, 0, nil, err
			}
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Cycle != recs[j].Cycle {
			return recs[i].Cycle < recs[j].Cycle
		}
		return recs[i].Seq < recs[j].Seq
	})
	return q.now, q.seq, recs, nil
}

// RestoreEvents rebuilds the queue's pending set from a capture. The
// queue must be empty (fresh or Reset). Events keep their original seq
// values — same-cycle ordering is part of the determinism contract — and
// the sequence counter resumes past them.
func (q *Queue) RestoreEvents(now int64, seq uint64, recs []EventRec, reg *Registry) error {
	if q.pending != 0 {
		return fmt.Errorf("event: RestoreEvents on non-empty queue (%d pending)", q.pending)
	}
	q.now = now
	q.seq = seq
	if !q.useHeap {
		q.wheelEnd = now + wheelSize
	}
	for i := range recs {
		rec := &recs[i]
		h, ok := reg.Handler(rec.H)
		if !ok {
			return fmt.Errorf("event: restored event handler id %d out of range", rec.H)
		}
		if rec.Seq >= seq {
			return fmt.Errorf("event: restored event seq %d not below counter %d", rec.Seq, seq)
		}
		it := item{cycle: rec.Cycle, seq: rec.Seq, h: h, kind: rec.Kind, a: rec.A, b: rec.B}
		if q.pending == 0 || it.cycle < q.nextDue {
			q.nextDue = it.cycle
		}
		q.pending++
		switch {
		case q.useHeap:
			heapPush(&q.heap, it)
		case it.cycle < q.wheelEnd:
			// Records arrive in (cycle, seq) order and each bucket holds a
			// single distinct cycle, so positional bucket order matches
			// scheduling order, exactly as live inserts produce it.
			q.bucketAdd(it)
		default:
			heapPush(&q.overflow, it)
		}
	}
	return nil
}
