package opserver

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"gvrt/internal/api"
	"gvrt/internal/ctrlplane"
	"gvrt/internal/obs"
	"gvrt/internal/trace"
)

// This file renders a RuntimeStats snapshot as Prometheus text
// exposition format (version 0.0.4). The runtime's log2 histograms map
// directly onto Prometheus histograms: bucket i's upper bound is
// 2^i nanoseconds, exposed in seconds, with the trimmed tail folded
// into +Inf.

// counter pairs a metric name with a monotonic value.
type counter struct {
	name  string
	help  string
	value int64
}

// writeMetrics renders the full exposition.
func writeMetrics(w io.Writer, s api.RuntimeStats) {
	for _, m := range api.NodeScalars {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", m.Name, m.Help, m.Name, m.Kind, m.Name, m.Format(&s))
	}
	writeDeviceMetrics(w, s.Devices)
	writeTenantMetrics(w, s.Tenants)
	writeHistograms(w, s.Histograms)
}

// writeTenantMetrics renders the per-tenant attribution bundle as
// tenant-labeled series.
func writeTenantMetrics(w io.Writer, tenants map[string]api.TenantUsage) {
	if len(tenants) == 0 {
		return
	}
	names := make([]string, 0, len(tenants))
	for t := range tenants {
		names = append(names, t)
	}
	sort.Strings(names)

	for _, m := range api.TenantScalars {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.Name, m.Help, m.Name, m.Kind)
		for _, t := range names {
			u := tenants[t]
			fmt.Fprintf(w, "%s{tenant=%q} %s\n", m.Name, t, m.Format(&u))
		}
	}

	fmt.Fprintf(w, "# HELP gvrt_tenant_launch_latency_seconds Per-tenant kernel launch service time (model seconds).\n# TYPE gvrt_tenant_launch_latency_seconds histogram\n")
	for _, t := range names {
		writeHist(w, "gvrt_tenant_launch_latency_seconds", fmt.Sprintf("tenant=%q,", t), tenants[t].Launch, 1e9)
	}
	fmt.Fprintf(w, "# HELP gvrt_tenant_queue_wait_seconds Per-tenant vGPU queue wait (model seconds).\n# TYPE gvrt_tenant_queue_wait_seconds histogram\n")
	for _, t := range names {
		writeHist(w, "gvrt_tenant_queue_wait_seconds", fmt.Sprintf("tenant=%q,", t), tenants[t].QueueWait, 1e9)
	}
}

// writeCtrlMetrics renders the control plane's operation counters,
// store counters, and the completed-operation duration histogram.
func writeCtrlMetrics(w io.Writer, m *ctrlplane.Manager) {
	oc := m.CountersSnapshot()
	st := m.Store().Stats()
	for _, c := range []counter{
		{"ctrl_ops_started_total", "Control-plane operations recorded.", oc.Started},
		{"ctrl_ops_completed_total", "Control-plane operations fully applied.", oc.Completed},
		{"ctrl_ops_resumed_total", "Interrupted operations resumed to completion at boot.", oc.Resumed},
		{"ctrl_ops_rolled_back_total", "Interrupted operations rolled back.", oc.RolledBack},
		{"ctrl_ops_stuck_total", "Operations quarantined awaiting operator cleanup.", oc.Stuck},
		{"ctrl_ops_cleaned_total", "Stuck operations force-rolled-back via the cleanup endpoint.", oc.Cleaned},
		{"ctrl_store_commits_total", "Control-plane store transactions committed.", st.Commits},
		{"ctrl_store_syncs_total", "Control-plane store fsync barriers.", st.Syncs},
		{"ctrl_store_compactions_total", "Control-plane store snapshot compactions.", st.Compactions},
		{"ctrl_store_quarantined_total", "Store records quarantined during recovery (payload CRC).", st.Quarantined},
	} {
		name := "gvrt_" + c.name
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, c.help, name, name, c.value)
	}
	writeGauge(w, "gvrt_ctrl_store_keys", "Keys held in the control-plane store.", float64(st.Keys))
	writeGauge(w, "gvrt_ctrl_ops_pending", "Operations currently pending or stuck.", float64(len(m.Ops())))
	fmt.Fprintf(w, "# HELP gvrt_ctrl_op_duration_seconds Completed control-plane operation duration (seconds).\n# TYPE gvrt_ctrl_op_duration_seconds histogram\n")
	writeHist(w, "gvrt_ctrl_op_duration_seconds", "", m.OpDurations(), 1e9)
}

// writeClusterGauges renders how many nodes a cluster-scope
// exposition folds in.
func writeClusterGauges(w io.Writer, cs obs.ClusterStats) {
	writeGauge(w, "gvrt_cluster_nodes", "Nodes whose snapshot is folded into this exposition.", float64(len(cs.Nodes)))
	writeGauge(w, "gvrt_cluster_nodes_unreachable", "Nodes that failed to answer the stats pull.", float64(len(cs.Unreachable)))
}

func writeGauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, fmtFloat(v))
}

// deviceMetric describes one per-device series.
type deviceMetric struct {
	name string
	help string
	typ  string
	val  func(api.DeviceStats) float64
}

func writeDeviceMetrics(w io.Writer, devs []api.DeviceStats) {
	if len(devs) == 0 {
		return
	}
	metrics := []deviceMetric{
		{"gvrt_device_healthy", "1 when the device is healthy, 0 after a failure.", "gauge",
			func(d api.DeviceStats) float64 {
				if d.Healthy {
					return 1
				}
				return 0
			}},
		{"gvrt_device_busy_seconds_total", "Model seconds the device spent executing.", "counter",
			func(d api.DeviceStats) float64 { return float64(d.BusyNS) / 1e9 }},
		{"gvrt_device_launches_total", "Kernel launches executed on the device.", "counter",
			func(d api.DeviceStats) float64 { return float64(d.Launches) }},
		{"gvrt_device_h2d_bytes_total", "Host-to-device bytes transferred.", "counter",
			func(d api.DeviceStats) float64 { return float64(d.H2DBytes) }},
		{"gvrt_device_d2h_bytes_total", "Device-to-host bytes transferred.", "counter",
			func(d api.DeviceStats) float64 { return float64(d.D2HBytes) }},
		{"gvrt_device_active_vgpus", "Virtual GPUs currently bound to a context.", "gauge",
			func(d api.DeviceStats) float64 { return float64(d.ActiveVGPUs) }},
		{"gvrt_device_vgpus", "Virtual GPUs configured on the device.", "gauge",
			func(d api.DeviceStats) float64 { return float64(d.VGPUs) }},
		{"gvrt_device_mem_available_bytes", "Device memory currently available.", "gauge",
			func(d api.DeviceStats) float64 { return float64(d.MemAvailable) }},
		{"gvrt_device_capacity_bytes", "Device memory capacity.", "gauge",
			func(d api.DeviceStats) float64 { return float64(d.Capacity) }},
	}
	for _, m := range metrics {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ)
		for _, d := range devs {
			fmt.Fprintf(w, "%s{device=%q,model=%q} %s\n",
				m.name, strconv.Itoa(d.Index), d.Name, fmtFloat(m.val(d)))
		}
	}
}

// writeHistograms renders every histogram in the snapshot. Per-call
// histograms ("call.<kind>" keys) are folded into one
// gvrt_call_duration_seconds family with a kind label.
func writeHistograms(w io.Writer, hists map[string]trace.HistSnapshot) {
	if len(hists) == 0 {
		return
	}
	keys := make([]string, 0, len(hists))
	for k := range hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	// Per-call keys sort together, so the call family stays contiguous.
	callHeader := false
	for _, k := range keys {
		if kind, isCall := strings.CutPrefix(k, "call."); isCall {
			if !callHeader {
				fmt.Fprintf(w, "# HELP gvrt_call_duration_seconds Service time per CUDA call kind (model seconds).\n# TYPE gvrt_call_duration_seconds histogram\n")
				callHeader = true
			}
			writeHist(w, "gvrt_call_duration_seconds", fmt.Sprintf("kind=%q,", kind), hists[k], 1e9)
			continue
		}
		f := trace.FamilyOf(k)
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", f.Metric, f.Help, f.Metric)
		writeHist(w, f.Metric, "", hists[k], float64(f.Unit))
	}
}

// writeHist renders one histogram's _bucket/_sum/_count series.
// extraLabels is either empty or a "k=\"v\"," prefix.
func writeHist(w io.Writer, name, extraLabels string, s trace.HistSnapshot, scale float64) {
	var cum int64
	for i, c := range s.Buckets {
		cum += c
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n",
			name, extraLabels, fmtFloat(float64(trace.BucketBound(i))/scale), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, extraLabels, s.Count)
	var labels string
	if extraLabels != "" {
		labels = "{" + strings.TrimSuffix(extraLabels, ",") + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, fmtFloat(float64(s.Sum)/scale))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, s.Count)
}

// fmtFloat renders a float the way Prometheus expects: shortest
// round-trip representation, integers without a decimal point.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
