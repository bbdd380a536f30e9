package api

import (
	"encoding/gob"
	"strconv"

	"gvrt/internal/trace"
)

// StatsCall asks a runtime daemon for its metrics snapshot — the
// operator-facing view of what the node is doing (the information §2
// suggests a node may expose to guide cluster-level scheduling:
// "number of GPUs, load level, etc.").
type StatsCall struct{}

// CallName implements Call.
func (StatsCall) CallName() string { return "gvrtStats" }

// DeviceStats is the per-device slice of RuntimeStats.
type DeviceStats struct {
	Index        int    `json:"index"`
	Name         string `json:"name"`
	Healthy      bool   `json:"healthy"`
	BusyNS       int64  `json:"busy_ns"`
	Launches     int64  `json:"launches"`
	H2DBytes     int64  `json:"h2d_bytes"`
	D2HBytes     int64  `json:"d2h_bytes"`
	ActiveVGPUs  int    `json:"active_vgpus"`
	VGPUs        int    `json:"vgpus"`
	MemAvailable uint64 `json:"mem_available"`
	Capacity     uint64 `json:"capacity"`
}

// TenantUsage is the per-tenant slice of RuntimeStats: every counter a
// multi-tenant operator needs to answer "which tenant is burning this
// resource?". Counters mirror their runtime-wide siblings exactly (same
// increment sites), so summing usage across tenants reproduces the
// node totals for any work done inside a tenant-joined session — the
// conservation property the cluster view is audited against.
type TenantUsage struct {
	// Sessions is the number of currently attached contexts.
	Sessions int64 `json:"sessions"`
	// Calls / Errors count calls served for the tenant's contexts and
	// how many returned an error.
	Calls  int64 `json:"calls"`
	Errors int64 `json:"errors"`
	// Launches counts kernel launches; GPUTimeNS is the modeled kernel
	// execution time attributed to them.
	Launches  int64 `json:"launches"`
	GPUTimeNS int64 `json:"gpu_time_ns"`
	// QueueWaitNS is total model time the tenant's calls spent parked
	// waiting for a free vGPU.
	QueueWaitNS int64 `json:"queue_wait_ns"`
	// SwapBytes / SwapOps / CheckpointBytes / MigrationBytes /
	// DedupSavedBytes attribute the memory plane: swap-out spills,
	// checkpoint flushes, cross-node migration wire bytes, and host
	// bytes avoided by dedup for images the tenant owns.
	SwapBytes       int64 `json:"swap_bytes"`
	SwapOps         int64 `json:"swap_ops"`
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	MigrationBytes  int64 `json:"migration_bytes"`
	DedupSavedBytes int64 `json:"dedup_saved_bytes"`
	// FenceRejections counts the tenant's mutating calls rejected with
	// ErrFenced; QuotaRejects counts admissions and allocations the
	// tenant's quota refused (the per-tenant face of load shedding).
	FenceRejections int64 `json:"fence_rejections"`
	QuotaRejects    int64 `json:"quota_rejects"`
	// Launch / QueueWait are the tenant-scoped latency distributions
	// (model-time nanoseconds), mergeable across nodes.
	Launch    trace.HistSnapshot `json:"launch,omitempty"`
	QueueWait trace.HistSnapshot `json:"queue_wait,omitempty"`
}

// RuntimeStats is the wire form of a runtime's metrics snapshot,
// returned (JSON-encoded in Reply.Data) for a StatsCall.
type RuntimeStats struct {
	CallsServed   int64 `json:"calls_served"`
	Binds         int64 `json:"binds"`
	InterAppSwaps int64 `json:"inter_app_swaps"`
	IntraAppSwaps int64 `json:"intra_app_swaps"`
	SwapOps       int64 `json:"swap_ops"`
	SwapBytes     int64 `json:"swap_bytes"`
	// CheckpointBytes counts device→swap bytes moved by checkpoint
	// flushes; SwapBytes above counts only real swap-out spills.
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	// PrefetchIssued / PrefetchHits / PrefetchSkipped describe the
	// predictive prefetcher: speculative swap-ins completed, launches
	// that found their working set already resident because of one,
	// and predictions dropped (context busy, no memory, queue full).
	PrefetchIssued  int64 `json:"prefetch_issued"`
	PrefetchHits    int64 `json:"prefetch_hits"`
	PrefetchSkipped int64 `json:"prefetch_skipped"`
	// DedupHits / DedupSavedBytes / CowBreaks describe swap-area
	// content deduplication: chunks found already interned, bytes of
	// host occupancy currently avoided, and sealed images privatised
	// by a mutating access.
	DedupHits       int64 `json:"dedup_hits"`
	DedupSavedBytes int64 `json:"dedup_saved_bytes"`
	CowBreaks       int64 `json:"cow_breaks"`
	Migrations      int64 `json:"migrations"`
	// MigrationsStarted / MigrationsCompleted / MigrationsAborted count
	// cross-node context migrations (journaled image transfers plus
	// failover promotions), as opposed to Migrations above, which counts
	// intra-node device re-bindings (§5.3.4 load balancing).
	MigrationsStarted   int64 `json:"migrations_started"`
	MigrationsCompleted int64 `json:"migrations_completed"`
	MigrationsAborted   int64 `json:"migrations_aborted"`
	// FenceRejections counts mutating calls rejected with ErrFenced
	// because the session's lease epoch moved; LeaseRenewals counts
	// successful lease extensions piggybacked on served calls.
	FenceRejections int64 `json:"fence_rejections"`
	LeaseRenewals   int64 `json:"lease_renewals"`
	Recoveries      int64 `json:"recoveries"`
	Replays         int64 `json:"replays"`
	DeviceFailures  int64 `json:"device_failures"`
	Offloaded       int64 `json:"offloaded"`
	UnbindRetries   int64 `json:"unbind_retries"`
	BreakerTrips    int64 `json:"breaker_trips"`
	Readmissions    int64 `json:"readmissions"`
	RetriesSpent    int64 `json:"retries_spent"`
	Sheds           int64 `json:"sheds"`
	// GPUTimeNS is total modeled kernel execution time across all
	// contexts — the node-level total the per-tenant GPUTimeNS figures
	// are conserved against.
	GPUTimeNS    int64         `json:"gpu_time_ns"`
	QueueDepth   int64         `json:"queue_depth"`
	LiveContexts int64         `json:"live_contexts"`
	Devices      []DeviceStats `json:"devices"`
	// Tenants carries per-tenant attribution, keyed by tenant name.
	Tenants map[string]TenantUsage `json:"tenants,omitempty"`
	// Histograms carries latency/size distributions keyed by metric
	// name ("launch_latency", "queue_wait", "call.cudaLaunch", ...).
	// trace.HistFamilies declares each key's unit.
	Histograms map[string]trace.HistSnapshot `json:"histograms,omitempty"`
}

// Kinds of exported scalar, as Prometheus TYPE keywords: a counter
// only rises (its family ends in _total), a gauge may fall.
const (
	Counter = "counter"
	Gauge   = "gauge"
)

// Scalar declares one exported int64 field of T: its Prometheus family
// name and help text, its kind, and the scale from the raw field to
// the exposed unit (1e9 for a ...NS field exposed in seconds; 0 means
// exposed as is). Every reader of the export — /metrics, /statusz and
// the fleet merge — walks these tables instead of naming fields.
type Scalar[T any] struct {
	Name  string
	Help  string
	Kind  string
	Scale float64
	Field func(*T) *int64
}

// Format renders the field of v in the exposed unit: integers exactly,
// scaled fields as the shortest round-trip float.
func (s Scalar[T]) Format(v *T) string {
	if s.Scale == 0 {
		return strconv.FormatInt(*s.Field(v), 10)
	}
	return strconv.FormatFloat(float64(*s.Field(v))/s.Scale, 'g', -1, 64)
}

// NodeScalars is the single declaration of RuntimeStats' scalars, in
// exposition order.
var NodeScalars = []Scalar[RuntimeStats]{
	{"gvrt_calls_served_total", "CUDA calls served.", Counter, 0,
		func(s *RuntimeStats) *int64 { return &s.CallsServed }},
	{"gvrt_binds_total", "Context-to-vGPU bindings.", Counter, 0,
		func(s *RuntimeStats) *int64 { return &s.Binds }},
	{"gvrt_inter_app_swaps_total", "Inter-application swap-outs (context evictions).", Counter, 0,
		func(s *RuntimeStats) *int64 { return &s.InterAppSwaps }},
	{"gvrt_intra_app_swaps_total", "Intra-application swap-outs (working-set evictions).", Counter, 0,
		func(s *RuntimeStats) *int64 { return &s.IntraAppSwaps }},
	{"gvrt_swap_ops_total", "Swap-area operations.", Counter, 0,
		func(s *RuntimeStats) *int64 { return &s.SwapOps }},
	{"gvrt_swap_bytes_total", "Bytes moved through the swap area.", Counter, 0,
		func(s *RuntimeStats) *int64 { return &s.SwapBytes }},
	{"gvrt_checkpoint_bytes_total", "Device-to-swap bytes moved by checkpoint flushes.", Counter, 0,
		func(s *RuntimeStats) *int64 { return &s.CheckpointBytes }},
	{"gvrt_prefetch_issued_total", "Speculative swap-ins completed by the predictive prefetcher.", Counter, 0,
		func(s *RuntimeStats) *int64 { return &s.PrefetchIssued }},
	{"gvrt_prefetch_hits_total", "Launches that found their working set resident because of a prefetch.", Counter, 0,
		func(s *RuntimeStats) *int64 { return &s.PrefetchHits }},
	{"gvrt_prefetch_skipped_total", "Prefetch predictions dropped (context busy, no memory, queue full).", Counter, 0,
		func(s *RuntimeStats) *int64 { return &s.PrefetchSkipped }},
	{"gvrt_dedup_hits_total", "Swap chunks found already interned by deduplication.", Counter, 0,
		func(s *RuntimeStats) *int64 { return &s.DedupHits }},
	{"gvrt_dedup_host_saved_bytes", "Host bytes currently avoided by swap-area deduplication.", Gauge, 0,
		func(s *RuntimeStats) *int64 { return &s.DedupSavedBytes }},
	{"gvrt_cow_breaks_total", "Sealed swap images privatised by a mutating access.", Counter, 0,
		func(s *RuntimeStats) *int64 { return &s.CowBreaks }},
	{"gvrt_migrations_total", "Inter-device context migrations.", Counter, 0,
		func(s *RuntimeStats) *int64 { return &s.Migrations }},
	{"gvrt_migrations_started_total", "Cross-node session migrations started.", Counter, 0,
		func(s *RuntimeStats) *int64 { return &s.MigrationsStarted }},
	{"gvrt_migrations_completed_total", "Cross-node session migrations committed on the target.", Counter, 0,
		func(s *RuntimeStats) *int64 { return &s.MigrationsCompleted }},
	{"gvrt_migrations_aborted_total", "Cross-node session migrations aborted or refused.", Counter, 0,
		func(s *RuntimeStats) *int64 { return &s.MigrationsAborted }},
	{"gvrt_fence_rejections_total", "Mutating calls rejected by the session-lease write fence.", Counter, 0,
		func(s *RuntimeStats) *int64 { return &s.FenceRejections }},
	{"gvrt_lease_renewals_total", "Session-lease renewals piggybacked on served calls.", Counter, 0,
		func(s *RuntimeStats) *int64 { return &s.LeaseRenewals }},
	{"gvrt_recoveries_total", "Device-failure recoveries.", Counter, 0,
		func(s *RuntimeStats) *int64 { return &s.Recoveries }},
	{"gvrt_replays_total", "Kernels replayed during recovery.", Counter, 0,
		func(s *RuntimeStats) *int64 { return &s.Replays }},
	{"gvrt_device_failures_total", "Device failures observed.", Counter, 0,
		func(s *RuntimeStats) *int64 { return &s.DeviceFailures }},
	{"gvrt_offloaded_total", "Connections offloaded to a peer node.", Counter, 0,
		func(s *RuntimeStats) *int64 { return &s.Offloaded }},
	{"gvrt_unbind_retries_total", "Unbind attempts retried.", Counter, 0,
		func(s *RuntimeStats) *int64 { return &s.UnbindRetries }},
	{"gvrt_breaker_trips_total", "Circuit-breaker trips on peer links.", Counter, 0,
		func(s *RuntimeStats) *int64 { return &s.BreakerTrips }},
	{"gvrt_readmissions_total", "Offloaded connections readmitted locally.", Counter, 0,
		func(s *RuntimeStats) *int64 { return &s.Readmissions }},
	{"gvrt_retries_spent_total", "Retry-budget tokens spent.", Counter, 0,
		func(s *RuntimeStats) *int64 { return &s.RetriesSpent }},
	{"gvrt_sheds_total", "Connections shed by admission control.", Counter, 0,
		func(s *RuntimeStats) *int64 { return &s.Sheds }},
	{"gvrt_gpu_seconds_total", "Model seconds of kernel execution across all contexts (the per-tenant conservation anchor).", Counter, 1e9,
		func(s *RuntimeStats) *int64 { return &s.GPUTimeNS }},
	{"gvrt_queue_depth", "Contexts waiting for a virtual GPU.", Gauge, 0,
		func(s *RuntimeStats) *int64 { return &s.QueueDepth }},
	{"gvrt_live_contexts", "Live application contexts.", Gauge, 0,
		func(s *RuntimeStats) *int64 { return &s.LiveContexts }},
}

// TenantScalars is the single declaration of TenantUsage's scalars,
// exposed as tenant-labeled series. Dedup savings are a gauge because
// reclaiming a saving (COW break, free) takes the value back down.
var TenantScalars = []Scalar[TenantUsage]{
	{"gvrt_tenant_sessions", "Sessions currently admitted for the tenant.", Gauge, 0,
		func(u *TenantUsage) *int64 { return &u.Sessions }},
	{"gvrt_tenant_calls_total", "CUDA calls served for the tenant.", Counter, 0,
		func(u *TenantUsage) *int64 { return &u.Calls }},
	{"gvrt_tenant_errors_total", "Calls that returned an error to the tenant.", Counter, 0,
		func(u *TenantUsage) *int64 { return &u.Errors }},
	{"gvrt_tenant_launches_total", "Kernel launches completed for the tenant.", Counter, 0,
		func(u *TenantUsage) *int64 { return &u.Launches }},
	{"gvrt_tenant_gpu_seconds_total", "Model seconds of GPU execution attributed to the tenant.", Counter, 1e9,
		func(u *TenantUsage) *int64 { return &u.GPUTimeNS }},
	{"gvrt_tenant_queue_wait_seconds_total", "Model seconds the tenant's contexts spent queued for a vGPU.", Counter, 1e9,
		func(u *TenantUsage) *int64 { return &u.QueueWaitNS }},
	{"gvrt_tenant_swap_bytes_total", "Swap-area bytes moved on behalf of the tenant.", Counter, 0,
		func(u *TenantUsage) *int64 { return &u.SwapBytes }},
	{"gvrt_tenant_swap_ops_total", "Swap-area operations attributed to the tenant.", Counter, 0,
		func(u *TenantUsage) *int64 { return &u.SwapOps }},
	{"gvrt_tenant_checkpoint_bytes_total", "Checkpoint bytes written for the tenant.", Counter, 0,
		func(u *TenantUsage) *int64 { return &u.CheckpointBytes }},
	{"gvrt_tenant_migration_bytes_total", "Migration wire bytes shipped for the tenant.", Counter, 0,
		func(u *TenantUsage) *int64 { return &u.MigrationBytes }},
	{"gvrt_tenant_dedup_saved_bytes", "Host bytes currently saved for the tenant by swap deduplication.", Gauge, 0,
		func(u *TenantUsage) *int64 { return &u.DedupSavedBytes }},
	{"gvrt_tenant_fence_rejections_total", "Tenant calls rejected by the session-lease write fence.", Counter, 0,
		func(u *TenantUsage) *int64 { return &u.FenceRejections }},
	{"gvrt_tenant_quota_rejects_total", "Tenant admissions or allocations rejected by quota.", Counter, 0,
		func(u *TenantUsage) *int64 { return &u.QuotaRejects }},
}

func init() {
	gob.Register(StatsCall{})
}
