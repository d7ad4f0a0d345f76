// Package dist extends Spawn & Merge to distributed computing — the
// second future-work item of the paper's conclusion ("we plan to apply
// the concept of Spawn and Merge to distributed computing by using MPI").
//
// A Cluster consists of worker nodes that share no memory with the
// coordinator: task data crosses node boundaries only as serialized
// snapshots and serialized operation lists, exactly like ranks in an MPI
// job. SpawnRemote ships snapshot copies of selected mergeable structures
// to a worker, which runs a registered function on them; the worker's
// recorded operations travel back on Sync and completion, where a local
// proxy task re-issues them — so the coordinator's standard deterministic
// merge machinery (MergeAll and friends) applies unchanged, and the
// determinism guarantees carry over to the distributed setting.
//
// Transport is the in-memory memnet substrate (the repository's hermetic
// stand-in for TCP/MPI); the protocol is ordinary gob over a stream and
// would run over real sockets unmodified.
package dist

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"

	"repro/internal/mergeable"
	"repro/internal/ot"
)

func init() {
	// Operations travel inside interface-typed slices; gob needs the
	// concrete types registered once.
	gob.Register(ot.SeqInsert{})
	gob.Register(ot.SeqDelete{})
	gob.Register(ot.SeqSet{})
	gob.Register(ot.TextInsert{})
	gob.Register(ot.TextDelete{})
	gob.Register(ot.CounterAdd{})
	gob.Register(ot.MapSet{})
	gob.Register(ot.MapDelete{})
	gob.Register(ot.SetAdd{})
	gob.Register(ot.SetRemove{})
	gob.Register(ot.RegisterSet{})
	gob.Register(ot.TreeInsert{})
	gob.Register(ot.TreeDelete{})
	gob.Register(ot.TreeSet{})
}

// Codec serializes one concrete mergeable structure type. Codecs are
// registered per cluster-visible name; the same registrations must exist
// on every node (they do automatically here, since nodes share the
// process — with real remote nodes the registration code ships with the
// binary, as with MPI).
type Codec interface {
	// Name is the codec's wire identifier.
	Name() string
	// Type is the concrete structure type this codec handles.
	Type() reflect.Type
	// Encode snapshots the structure's current value.
	Encode(m mergeable.Mergeable) ([]byte, error)
	// Decode rebuilds a structure from a snapshot, with a fresh log.
	Decode(data []byte) (mergeable.Mergeable, error)
}

// registry holds the process-global codec and function tables.
var registry = struct {
	sync.RWMutex
	byName map[string]Codec
	byType map[reflect.Type]Codec
	funcs  map[string]WorkerFunc
}{
	byName: make(map[string]Codec),
	byType: make(map[reflect.Type]Codec),
	funcs:  make(map[string]WorkerFunc),
}

// RegisterCodec installs a codec. Registering the same name twice
// replaces the previous codec (convenient for tests).
func RegisterCodec(c Codec) {
	registry.Lock()
	defer registry.Unlock()
	registry.byName[c.Name()] = c
	registry.byType[c.Type()] = c
}

func codecFor(m mergeable.Mergeable) (Codec, error) {
	registry.RLock()
	defer registry.RUnlock()
	c, ok := registry.byType[reflect.TypeOf(m)]
	if !ok {
		return nil, fmt.Errorf("dist: no codec registered for %T", m)
	}
	return c, nil
}

func codecByName(name string) (Codec, error) {
	registry.RLock()
	defer registry.RUnlock()
	c, ok := registry.byName[name]
	if !ok {
		return nil, fmt.Errorf("dist: no codec registered under %q", name)
	}
	return c, nil
}

// EncodeSnapshot serializes m with its registered codec, returning the
// codec's wire name alongside the bytes. The journal uses the same
// codecs for durable snapshots that the cluster uses for the wire, so a
// structure that can cross a node boundary can also cross a crash.
func EncodeSnapshot(m mergeable.Mergeable) (codec string, data []byte, err error) {
	c, err := codecFor(m)
	if err != nil {
		return "", nil, err
	}
	b, err := c.Encode(m)
	if err != nil {
		return "", nil, fmt.Errorf("dist: encode %T: %w", m, err)
	}
	return c.Name(), b, nil
}

// DecodeSnapshot rebuilds a structure from EncodeSnapshot's output.
func DecodeSnapshot(codec string, data []byte) (mergeable.Mergeable, error) {
	c, err := codecByName(codec)
	if err != nil {
		return nil, err
	}
	return c.Decode(data)
}

// funcCodec is the generic implementation backing the per-structure
// constructors below.
type funcCodec struct {
	name string
	typ  reflect.Type
	enc  func(mergeable.Mergeable) ([]byte, error)
	dec  func([]byte) (mergeable.Mergeable, error)
}

func (c funcCodec) Name() string                                    { return c.name }
func (c funcCodec) Type() reflect.Type                              { return c.typ }
func (c funcCodec) Encode(m mergeable.Mergeable) ([]byte, error)    { return c.enc(m) }
func (c funcCodec) Decode(data []byte) (mergeable.Mergeable, error) { return c.dec(data) }

func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// RegisterListCodec registers a codec for *mergeable.List[T] under name
// and registers T's payload with gob.
func RegisterListCodec[T any](name string) {
	var zero T
	gob.Register(zero)
	RegisterCodec(funcCodec{
		name: name,
		typ:  reflect.TypeOf((*mergeable.List[T])(nil)),
		enc: func(m mergeable.Mergeable) ([]byte, error) {
			return gobEncode(m.(*mergeable.List[T]).Values())
		},
		dec: func(data []byte) (mergeable.Mergeable, error) {
			var vals []T
			if err := gobDecode(data, &vals); err != nil {
				return nil, err
			}
			return mergeable.NewList(vals...), nil
		},
	})
}

// RegisterQueueCodec registers a codec for *mergeable.Queue[T].
func RegisterQueueCodec[T any](name string) {
	var zero T
	gob.Register(zero)
	RegisterCodec(funcCodec{
		name: name,
		typ:  reflect.TypeOf((*mergeable.Queue[T])(nil)),
		enc: func(m mergeable.Mergeable) ([]byte, error) {
			return gobEncode(m.(*mergeable.Queue[T]).Values())
		},
		dec: func(data []byte) (mergeable.Mergeable, error) {
			var vals []T
			if err := gobDecode(data, &vals); err != nil {
				return nil, err
			}
			return mergeable.NewQueue(vals...), nil
		},
	})
}

// RegisterMapCodec registers a codec for *mergeable.Map[K,V].
func RegisterMapCodec[K comparable, V any](name string) {
	var zeroK K
	var zeroV V
	gob.Register(zeroK)
	gob.Register(zeroV)
	RegisterCodec(funcCodec{
		name: name,
		typ:  reflect.TypeOf((*mergeable.Map[K, V])(nil)),
		enc: func(m mergeable.Mergeable) ([]byte, error) {
			mm := m.(*mergeable.Map[K, V])
			out := make(map[K]V, mm.Len())
			for _, k := range mm.Keys() {
				v, _ := mm.Get(k)
				out[k] = v
			}
			return gobEncode(out)
		},
		dec: func(data []byte) (mergeable.Mergeable, error) {
			var vals map[K]V
			if err := gobDecode(data, &vals); err != nil {
				return nil, err
			}
			m := mergeable.NewMap[K, V]()
			for k, v := range vals {
				m.Set(k, v)
			}
			m.Log().TakeLocal() // snapshot reconstruction is not history
			return m, nil
		},
	})
}

// RegisterSetCodec registers a codec for *mergeable.Set[K].
func RegisterSetCodec[K comparable](name string) {
	var zero K
	gob.Register(zero)
	RegisterCodec(funcCodec{
		name: name,
		typ:  reflect.TypeOf((*mergeable.Set[K])(nil)),
		enc: func(m mergeable.Mergeable) ([]byte, error) {
			return gobEncode(m.(*mergeable.Set[K]).Values())
		},
		dec: func(data []byte) (mergeable.Mergeable, error) {
			var vals []K
			if err := gobDecode(data, &vals); err != nil {
				return nil, err
			}
			return mergeable.NewSet(vals...), nil
		},
	})
}

// RegisterRegisterCodec registers a codec for *mergeable.Register[T].
func RegisterRegisterCodec[T any](name string) {
	var zero T
	gob.Register(zero)
	RegisterCodec(funcCodec{
		name: name,
		typ:  reflect.TypeOf((*mergeable.Register[T])(nil)),
		enc: func(m mergeable.Mergeable) ([]byte, error) {
			return gobEncode(m.(*mergeable.Register[T]).Get())
		},
		dec: func(data []byte) (mergeable.Mergeable, error) {
			var v T
			if err := gobDecode(data, &v); err != nil {
				return nil, err
			}
			return mergeable.NewRegister(v), nil
		},
	})
}

func init() {
	// Counter and Text have no type parameters; register them eagerly.
	RegisterCodec(funcCodec{
		name: "counter",
		typ:  reflect.TypeOf((*mergeable.Counter)(nil)),
		enc: func(m mergeable.Mergeable) ([]byte, error) {
			return gobEncode(m.(*mergeable.Counter).Value())
		},
		dec: func(data []byte) (mergeable.Mergeable, error) {
			var v int64
			if err := gobDecode(data, &v); err != nil {
				return nil, err
			}
			return mergeable.NewCounter(v), nil
		},
	})
	RegisterCodec(funcCodec{
		name: "text",
		typ:  reflect.TypeOf((*mergeable.Text)(nil)),
		enc: func(m mergeable.Mergeable) ([]byte, error) {
			return gobEncode(m.(*mergeable.Text).String())
		},
		dec: func(data []byte) (mergeable.Mergeable, error) {
			var s string
			if err := gobDecode(data, &s); err != nil {
				return nil, err
			}
			return mergeable.NewText(s), nil
		},
	})
}

// RegisterTreeCodec registers the codec for *mergeable.Tree. Node values
// travel as gob interface payloads, so callers must gob.Register every
// concrete value type their trees hold (strings and numbers work out of
// the box).
func RegisterTreeCodec(name string) {
	RegisterCodec(funcCodec{
		name: name,
		typ:  reflect.TypeOf((*mergeable.Tree)(nil)),
		enc: func(m mergeable.Mergeable) ([]byte, error) {
			return gobEncode(m.(*mergeable.Tree).Snapshot())
		},
		dec: func(data []byte) (mergeable.Mergeable, error) {
			var root *ot.TreeNode
			if err := gobDecode(data, &root); err != nil {
				return nil, err
			}
			return mergeable.NewTreeFromSnapshot(root), nil
		},
	})
}

// RegisterFunc installs a worker function under a cluster-visible name —
// the distributed analogue of passing a function to Spawn (closures
// cannot cross address spaces, so remote task bodies are named, as in
// every MPI program).
func RegisterFunc(name string, fn WorkerFunc) {
	registry.Lock()
	defer registry.Unlock()
	registry.funcs[name] = fn
}

func funcByName(name string) (WorkerFunc, error) {
	registry.RLock()
	defer registry.RUnlock()
	fn, ok := registry.funcs[name]
	if !ok {
		return nil, fmt.Errorf("dist: no function registered under %q", name)
	}
	return fn, nil
}
