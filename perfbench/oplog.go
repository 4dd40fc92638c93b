package main

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// opKind is one kind of call the benchmark makes into FS or File.
type opKind int

const (
	opCreate opKind = iota
	opStat
	opRename
	opRemove
	opReaddir
	opWrite
	opRead
	opSync
	numOps
)

var opNames = [numOps]string{"create", "stat", "rename", "remove", "readdir", "write", "read", "sync"}

// meta reports whether the call is a namespace operation.
func (k opKind) meta() bool { return k <= opReaddir }

// span is one timed region of a traced run: a client op (Parent 0) or
// one call into the file system made on its behalf. Times are
// simulated nanoseconds.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Client int    `json:"client"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// opLog times every call one client makes, on the simulated clock.
// Each client goroutine owns its log; nothing in it is shared.
type opLog struct {
	client int
	now    func() int64
	trace  bool
	done   <-chan struct{} // closed when the phase ends

	lat     [numOps][]int64
	bytes   int64 // user bytes read and written
	written int64 // user bytes written
	failed  int64
	err     error // first failed call

	nextID int64
	cur    span // the client op in progress, when tracing
	spans  []span
}

func newOpLog(client int, now func() int64, trace bool, done <-chan struct{}) *opLog {
	return &opLog{client: client, now: now, trace: trace, done: done, nextID: int64(client+1) << 40}
}

// stopped reports whether the phase has ended.
func (l *opLog) stopped() bool {
	select {
	case <-l.done:
		return true
	default:
		return false
	}
}

// begin opens a client op; calls made until end become its children.
func (l *opLog) begin(name string) {
	if l.trace {
		l.nextID++
		l.cur = span{ID: l.nextID, Client: l.client, Name: name, Start: l.now()}
	}
}

// end closes the client op begun last.
func (l *opLog) end() {
	if l.trace {
		l.cur.End = l.now()
		l.spans = append(l.spans, l.cur)
	}
}

// do times one call that moves n user bytes. A call that fails counts
// as failed, not as a latency sample.
func (l *opLog) do(k opKind, n int, fn func() error) error {
	start := l.now()
	err := fn()
	end := l.now()
	if err != nil {
		l.failed++
		if l.err == nil {
			l.err = fmt.Errorf("%s: %w", opNames[k], err)
		}
		return err
	}
	l.lat[k] = append(l.lat[k], end-start)
	l.bytes += int64(n)
	if k == opWrite {
		l.written += int64(n)
	}
	if l.trace {
		l.nextID++
		l.spans = append(l.spans, span{ID: l.nextID, Parent: l.cur.ID, Client: l.client,
			Name: "fs." + opNames[k], Start: start, End: end})
	}
	return nil
}

func (l *opLog) ops() int64 {
	var n int64
	for _, s := range l.lat {
		n += int64(len(s))
	}
	return n
}

// quantile returns the nearest-rank q-quantile of xs (sorting xs), or
// 0 for an empty sample.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q*float64(len(xs))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// key folds the seed and a record's coordinates into one generator
// state.
func key(seed int64, a, b, c, d uint64) uint64 {
	x := mix(uint64(seed) + 0x9e3779b97f4a7c15)
	for _, v := range [4]uint64{a, b, c, d} {
		x = mix(x ^ v + 0x9e3779b97f4a7c15)
	}
	return x
}

// fill writes the bytes of the record named by k: the same seed and
// coordinates always give the same bytes.
func fill(dst []byte, k uint64) {
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		k += 0x9e3779b97f4a7c15
		binary.LittleEndian.PutUint64(dst[i:], mix(k))
	}
	if i < len(dst) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], mix(k+0x9e3779b97f4a7c15))
		copy(dst[i:], tail[:])
	}
}
