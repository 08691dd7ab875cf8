"""The end-to-end run simulator: workload x configuration -> time & cost.

This is the reproduction's stand-in for "run the job on EC2 and measure".
Per iteration the engine sequences compute, communication and an I/O burst;
I/O is lowered through the library layer, served by the configured file
system, and NFS write-back flushes are overlapped with the following
iteration's compute phase (the final flush is exposed — files must be
durable at close).  Placement interference, device/network noise and Eq. (1)
cost accounting are applied here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.cloud.cluster import ClusterSpec, Placement, provision
from repro.cloud.platform import CloudPlatform, DEFAULT_PLATFORM
from repro.cloud.storage import Raid0Array
from repro.fs.base import ServerResources
from repro.fs.registry import file_system_model
from repro.iosim.interface import LoweredIO, lower_io
from repro.iosim.workload import Workload
from repro.reliability.faults import get_injector
from repro.space.configuration import SystemConfig
from repro.space.validity import explain_invalid
from repro.telemetry import get_telemetry
from repro.util.rng import RngStream

__all__ = ["RunResult", "IOSimulator", "simulate_run"]

#: Bucket bounds (simulated seconds) for the per-run duration histogram.
RUN_SECONDS_BUCKETS = (10.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0, 7200.0)

#: Volumes mounted per server for network-attached (EBS) configurations —
#: the paper's convention ("mounting two EBS disks with a software RAID-0").
EBS_VOLUMES_PER_SERVER = 2

#: NIC share consumed by EBS traffic on a server pushing its disks hard.
_EBS_NIC_SHARE = 0.5

#: Part-time placement interference coefficients.
_PART_TIME_NIC_STEAL = 0.35       # x comm_intensity, NIC lost to app traffic
_PART_TIME_CPU_STEAL = 0.20       # x cpu_intensity, server service inflation
_PART_TIME_COMPUTE_DRAG = 0.15    # x servers/nodes, compute phase inflation


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulated execution.

    Attributes:
        seconds: total wall-clock execution time.
        cost: Eq. (1) monetary cost in dollars (pro-rated).
        instances: instances billed.
        config_key: configuration identifier (``SystemConfig.key``).
        workload: workload name.
        breakdown: phase -> seconds (compute, comm, io, shuffle,
            exposed_flush, startup).
        failed: True when fault injection hit the run (time includes retry).
    """

    seconds: float
    cost: float
    instances: int
    config_key: str
    workload: str
    breakdown: dict[str, float] = field(default_factory=dict)
    failed: bool = False

    def __post_init__(self) -> None:
        # NaN fails every comparison, so the chained bounds refuse it too.
        if not 0 < self.seconds < math.inf:
            raise ValueError(
                f"seconds must be positive and finite, got {self.seconds}"
            )
        if not 0 <= self.cost < math.inf:
            raise ValueError(f"cost must be finite and >= 0, got {self.cost}")


class IOSimulator:
    """Simulates workload executions on a :class:`CloudPlatform`.

    One simulator instance can be shared across sweeps; all randomness is
    derived from ``platform.seed`` + (workload, config, rep), so results
    are order-independent and reproducible.
    """

    def __init__(self, platform: CloudPlatform = DEFAULT_PLATFORM) -> None:
        self.platform = platform

    # ------------------------------------------------------------------
    def run(self, workload: Workload, config: SystemConfig, rep: int = 0) -> RunResult:
        """Execute one simulated run.

        Raises:
            ValueError: if the configuration is invalid for this workload
                (e.g. part-time placement with more servers than nodes).
            repro.reliability.InjectedError: an active fault plan shot
                this run down (transient; re-running re-draws).
        """
        telemetry = get_telemetry()
        fault = get_injector().perturb("iosim.run")
        with telemetry.span("iosim.run", workload=workload.name, config=config.key):
            result = self._run(workload, config, rep)
        if not fault.clean:
            # Latency spikes stretch the simulated wall clock; corruption
            # scales the whole measurement (a bad reading, not a crash).
            breakdown = dict(result.breakdown)
            breakdown["injected_latency"] = fault.latency_s
            result = replace(
                result,
                seconds=result.seconds * fault.factor + fault.latency_s,
                breakdown=breakdown,
            )
        telemetry.counter("iosim.runs").inc()
        telemetry.histogram(
            "iosim.run_seconds", RUN_SECONDS_BUCKETS,
            "simulated wall seconds per run",
        ).observe(result.seconds)
        return result

    def _run(self, workload: Workload, config: SystemConfig, rep: int) -> RunResult:
        """The uninstrumented simulation body (see :meth:`run`)."""
        reason = explain_invalid(config, workload.chars)
        if reason is not None:
            raise ValueError(f"invalid configuration {config.key}: {reason}")

        instance = self.platform.instance_type(config.instance_type)
        cluster = provision(
            instance, workload.chars.num_processes, config.io_servers, config.placement
        )
        lowered = lower_io(workload.chars, cluster.compute_nodes)
        servers = self._server_resources(config, cluster, lowered, workload)
        fs_model = file_system_model(config)

        rng = RngStream(self.platform.seed, workload.name, config.key, rep)
        breakdown: dict[str, float] = {}

        # --- one iteration's I/O burst -------------------------------
        io_blocking = 0.0
        deferred = 0.0
        for pattern in lowered.patterns:
            io_time = fs_model.iteration_time(pattern, servers)
            io_blocking += io_time.blocking_seconds
            deferred += io_time.deferred_seconds
        network = self.platform.network_for(instance)
        shuffle = 0.0
        if lowered.shuffle_bytes > 0:
            shuffle = (
                lowered.shuffle_bytes / (cluster.compute_nodes * network.node_bytes_per_s)
                + 2.0 * network.rtt_s
            )
        io_iter = io_blocking + shuffle + lowered.client_overhead_seconds

        # --- non-I/O phases, with part-time interference -------------
        compute_drag = 1.0
        if config.placement is Placement.PART_TIME:
            compute_drag = 1.0 + _PART_TIME_COMPUTE_DRAG * (
                cluster.shared_nodes / cluster.compute_nodes
            )
        compute_iter = workload.compute_seconds_per_iteration * compute_drag
        comm_iter = workload.comm_seconds_per_iteration * compute_drag

        # --- flush overlap: iteration i's write-back drains under the
        # compute+comm of iteration i+1; the last flush is exposed. ----
        iterations = workload.iterations
        overlap_window = compute_iter + comm_iter
        hidden_flush_overrun = max(0.0, deferred - overlap_window)
        exposed_flush = (iterations - 1) * hidden_flush_overrun + deferred

        # --- noise ----------------------------------------------------
        device = self.platform.device_model(config.device)
        io_sigma = (device.sigma ** 2 / config.io_servers + network.sigma ** 2) ** 0.5
        io_factor = self.platform.variability.factor(rng.child("io"), io_sigma)
        compute_factor = self.platform.variability.factor(rng.child("compute"), 0.02)

        io_total = (iterations * io_iter + exposed_flush) * io_factor
        compute_total = iterations * (compute_iter + comm_iter) * compute_factor
        startup = workload.startup_seconds + fs_model.mount_seconds(servers)

        seconds = startup + compute_total + io_total
        seconds, failed = self.platform.faults.apply(rng.child("fault"), seconds)

        breakdown["startup"] = startup
        breakdown["compute"] = iterations * compute_iter * compute_factor
        breakdown["comm"] = iterations * comm_iter * compute_factor
        breakdown["io"] = iterations * io_blocking * io_factor
        breakdown["client_overhead"] = (
            iterations * lowered.client_overhead_seconds * io_factor
        )
        breakdown["shuffle"] = iterations * shuffle * io_factor
        breakdown["exposed_flush"] = exposed_flush * io_factor

        cost = self.platform.pricing.exact_cost(
            seconds, cluster.total_instances, instance.hourly_price
        )
        return RunResult(
            seconds=seconds,
            cost=cost,
            instances=cluster.total_instances,
            config_key=config.key,
            workload=workload.name,
            breakdown=breakdown,
            failed=failed,
        )

    def run_median(self, workload: Workload, config: SystemConfig, reps: int = 3) -> RunResult:
        """Median-time run out of ``reps`` repetitions (the paper re-runs
        each measurement several times with caches cleared)."""
        if reps < 1:
            raise ValueError(f"reps must be >= 1, got {reps}")
        results = [self.run(workload, config, rep) for rep in range(reps)]
        results.sort(key=lambda r: r.seconds)
        return results[len(results) // 2]

    # ------------------------------------------------------------------
    def _server_resources(
        self,
        config: SystemConfig,
        cluster: ClusterSpec,
        lowered: LoweredIO,
        workload: Workload,
    ) -> ServerResources:
        """Provision the file servers' effective resources.

        Encodes the placement physics: part-time servers lose NIC share to
        application communication, inflate service times from CPU stealing,
        and gain the co-located-aggregator locality bonus; EBS devices tax
        the server NIC because their traffic rides it too.
        """
        instance = self.platform.instance_type(config.instance_type)
        device = self.platform.device_model(config.device)
        members = EBS_VOLUMES_PER_SERVER if device.network_attached else instance.local_disks
        raid = Raid0Array(device=device, members=members)
        network = self.platform.network_for(instance)

        server_net = network.node_bytes_per_s
        if device.network_attached:
            server_net *= _EBS_NIC_SHARE

        locality = 0.0
        inflation = 1.0
        if config.placement is Placement.PART_TIME:
            server_net *= 1.0 - _PART_TIME_NIC_STEAL * workload.comm_intensity
            inflation = 1.0 + _PART_TIME_CPU_STEAL * workload.cpu_intensity
            writers = lowered.aggregators
            locality = min(config.io_servers, writers) / (writers * config.io_servers)

        return ServerResources(
            servers=config.io_servers,
            raid=raid,
            net_bytes_per_s=server_net,
            client_net_bytes_per_s=network.node_bytes_per_s,
            rtt_s=network.rtt_s,
            memory_bytes=instance.memory_bytes,
            locality_fraction=locality,
            service_inflation=inflation,
        )


def simulate_run(
    workload: Workload,
    config: SystemConfig,
    platform: CloudPlatform = DEFAULT_PLATFORM,
    rep: int = 0,
) -> RunResult:
    """Convenience one-shot wrapper around :class:`IOSimulator`."""
    return IOSimulator(platform).run(workload, config, rep)
