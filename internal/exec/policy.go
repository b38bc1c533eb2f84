// Package exec executes training graphs on the simulated device: it manages
// tensor residency, allocates through the BFC pool, schedules kernels and
// PCIe transfers on virtual-time streams, and reports every tensor access
// to a pluggable memory-management Policy — the integration surface that
// Capuchin, vDNN and gradient checkpointing implement.
package exec

import (
	"capuchin/internal/graph"
	"capuchin/internal/sim"
	"capuchin/internal/tensor"
)

// AccessKind classifies a tensor access event.
type AccessKind int

// Access kinds.
const (
	// Produce: the tensor was written by its producing operation.
	Produce AccessKind = iota
	// Read: the tensor was consumed as an operation input.
	Read
	// Dealloc: the tensor died (reference count reached zero) and its
	// device memory was released. Policies use Dealloc events to
	// reconstruct the hypothetical memory-usage curve.
	Dealloc
)

// String implements fmt.Stringer.
func (k AccessKind) String() string {
	switch k {
	case Produce:
		return "produce"
	case Read:
		return "read"
	case Dealloc:
		return "dealloc"
	default:
		return "access(?)"
	}
}

// Access is one tensor access event reported to the policy. Mirrors the
// tuple Capuchin's Tensor Access Tracker records: {tensor_id, access_count,
// timestamp} (§5.2), plus executor context.
//
// Access is passed by value on every access, so it is kept to eight
// word-sized fields: the amd64 register ABI then passes it in registers
// instead of copying it through memory. The consuming or producing node is
// acc.Node (use acc.NodeID() for its ID); the iteration is env.Iteration().
type Access struct {
	Tensor *tensor.Tensor
	Kind   AccessKind
	// Count is the tensor's access count including this access.
	Count int
	// At is the access timestamp with on-demand-stall time already
	// subtracted, i.e. on the hypothetical infinite-memory timeline the
	// paper's tracker reconstructs (§5.2). Reads are stamped at operation
	// start, produces at operation end.
	At sim.Time
	// Raw is the unadjusted virtual time of the access.
	Raw sim.Time
	// Stall is how long the consuming operation had to wait for this
	// tensor (swap-in still in flight at the back-access): the signal for
	// Capuchin's feedback-driven in-trigger adjustment (§4.4).
	Stall sim.Time
	// InFlight reports that the tensor was mid-swap-in when accessed,
	// even if the wait was fully hidden.
	InFlight bool
	// Node is the consuming (Read) or producing (Produce) node; nil for
	// Dealloc, which no node performs.
	Node *graph.Node
}

// NodeID returns the ID of the access's node, or "" for a Dealloc.
func (a Access) NodeID() string {
	if a.Node == nil {
		return ""
	}
	return a.Node.ID
}

// Policy decides when to evict, prefetch and recompute. Implementations
// must be deterministic: they are driven entirely by the access stream and
// the Env.
type Policy interface {
	// Name identifies the policy in stats and benchmark output.
	Name() string
	// BeginIteration is called before the first node of each iteration.
	BeginIteration(iter int, env *Env)
	// OnAccess is called on every tensor access. The policy may invoke
	// Env actions; asynchronous actions anchor at the access's effect
	// time (operation end).
	OnAccess(acc Access, env *Env)
	// OnOOM is called when an allocation of need bytes fails after all
	// in-flight frees have been awaited. The policy returns tensors to
	// evict synchronously (Capuchin's passive mode) or false to fail the
	// iteration with OOM (the framework default).
	OnOOM(need int64, env *Env) ([]*tensor.Tensor, bool)
	// EndIteration is called after the iteration's final node and the
	// end-of-iteration barrier.
	EndIteration(iter int, env *Env)
	// TracksAccesses reports whether the policy performs runtime access
	// tracking; the executor then charges the device's per-access
	// tracking overhead (§6.3.2).
	TracksAccesses() bool
}

// OOMHandler is the optional eviction hook for policies that answer memory
// pressure with actions richer than the passive host-swap victim list OnOOM
// supports — h-DTR, for example, frees tensors for recomputation. When a
// policy implements it, the executor's OOM escalation calls HandleOOM
// instead of OnOOM. progress=true means the handler freed device memory or
// queued an asynchronous release, so the allocation should be retried;
// progress=false with ok=true lets the executor try its last resorts
// (completing an in-flight swap-in) before failing; ok=false fails the
// iteration with OOM immediately.
type OOMHandler interface {
	HandleOOM(need int64, env *Env) (progress, ok bool)
}

// NullPolicy is original TensorFlow: no memory management, OOM is fatal.
type NullPolicy struct{}

// Name implements Policy.
func (NullPolicy) Name() string { return "tf-ori" }

// BeginIteration implements Policy.
func (NullPolicy) BeginIteration(int, *Env) {}

// OnAccess implements Policy.
func (NullPolicy) OnAccess(Access, *Env) {}

// OnOOM implements Policy.
func (NullPolicy) OnOOM(int64, *Env) ([]*tensor.Tensor, bool) { return nil, false }

// EndIteration implements Policy.
func (NullPolicy) EndIteration(int, *Env) {}

// TracksAccesses implements Policy.
func (NullPolicy) TracksAccesses() bool { return false }
