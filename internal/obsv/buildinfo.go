package obsv

import (
	"runtime"
	"strconv"

	"mamdr/internal/autograd/kernels"
	"mamdr/internal/telemetry"
)

// Version identifies this build of the repo in federated views. There
// is no release process yet, so it tracks the PR sequence.
const Version = "0.7.0"

// RegisterBuildInfo registers the mamdr_build_info gauge: constant 1,
// with the build identity in labels, the Prometheus idiom for faceting
// fleet metrics by code version. In a heterogeneous fleet (a canary
// serve replica on a newer build, shards on different kernel backends)
// the federated view joins on these labels to tell the populations
// apart.
func RegisterBuildInfo(reg *telemetry.Registry, role string) {
	if reg == nil {
		return
	}
	reg.Gauge("mamdr_build_info",
		"Build identity of this process; constant 1, the information is in the labels.",
		telemetry.L("go_version", runtime.Version()),
		telemetry.L("kernel_backend", kernels.Default().Name()),
		telemetry.L("role", role),
		telemetry.L("threads", strconv.Itoa(kernels.Threads())),
		telemetry.L("version", Version),
	).Set(1)
}
