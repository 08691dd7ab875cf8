"""Tests for the end-to-end run simulator."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud.cluster import Placement
from repro.cloud.storage import DeviceKind
from repro.iosim.engine import IOSimulator, RunResult, simulate_run
from repro.iosim.workload import Workload
from repro.space.configuration import BASELINE_CONFIG, FileSystemKind, SystemConfig
from repro.space.grid import candidate_configs
from repro.util.units import MIB


def pvfs(servers=4, placement=Placement.DEDICATED, device=DeviceKind.EPHEMERAL):
    return SystemConfig(
        device=device, file_system=FileSystemKind.PVFS2,
        instance_type="cc2.8xlarge", io_servers=servers,
        placement=placement, stripe_bytes=4 * MIB,
    )


@pytest.fixture()
def workload(simple_chars) -> Workload:
    return Workload(
        name="engine-test",
        chars=simple_chars,
        compute_seconds_per_iteration=2.0,
        comm_seconds_per_iteration=0.5,
        cpu_intensity=0.8,
        comm_intensity=0.4,
    )


class TestDeterminism:
    def test_same_inputs_same_output(self, workload, platform):
        a = simulate_run(workload, BASELINE_CONFIG, platform)
        b = simulate_run(workload, BASELINE_CONFIG, platform)
        assert a.seconds == b.seconds and a.cost == b.cost

    def test_reps_differ_under_noise(self, workload, platform):
        a = simulate_run(workload, BASELINE_CONFIG, platform, rep=0)
        b = simulate_run(workload, BASELINE_CONFIG, platform, rep=1)
        assert a.seconds != b.seconds

    def test_noise_off_is_rep_invariant(self, workload, quiet_platform):
        a = simulate_run(workload, BASELINE_CONFIG, quiet_platform, rep=0)
        b = simulate_run(workload, BASELINE_CONFIG, quiet_platform, rep=7)
        assert a.seconds == b.seconds

    def test_config_order_independence(self, workload, platform):
        """Measuring other configs first must not change a result."""
        simulator = IOSimulator(platform)
        fresh = IOSimulator(platform).run(workload, pvfs())
        simulator.run(workload, BASELINE_CONFIG)
        simulator.run(workload, pvfs(2))
        assert simulator.run(workload, pvfs()).seconds == fresh.seconds


class TestEquationOne:
    def test_cost_is_time_instances_price(self, workload, platform):
        result = simulate_run(workload, BASELINE_CONFIG, platform)
        price = platform.instance_type("cc2.8xlarge").hourly_price
        expected = result.seconds / 3600.0 * result.instances * price
        assert result.cost == pytest.approx(expected)

    def test_dedicated_bills_servers(self, workload, platform):
        dedicated = simulate_run(workload, pvfs(4, Placement.DEDICATED), platform)
        part_time = simulate_run(workload, pvfs(4, Placement.PART_TIME), platform)
        assert dedicated.instances == part_time.instances + 4


class TestPhysicalMonotonicity:
    def test_more_servers_never_slower_streaming(self, quiet_platform, simple_chars):
        big = dataclasses.replace(simple_chars, data_bytes=512 * MIB, request_bytes=16 * MIB)
        workload = Workload.pure_io("stream", big)
        one = simulate_run(workload, pvfs(1), quiet_platform)
        four = simulate_run(workload, pvfs(4), quiet_platform)
        assert four.seconds < one.seconds

    def test_faster_device_never_slower(self, quiet_platform, simple_chars):
        big = dataclasses.replace(simple_chars, data_bytes=512 * MIB, request_bytes=16 * MIB)
        workload = Workload.pure_io("stream", big)
        ebs = simulate_run(workload, pvfs(device=DeviceKind.EBS), quiet_platform)
        eph = simulate_run(workload, pvfs(device=DeviceKind.EPHEMERAL), quiet_platform)
        assert eph.seconds < ebs.seconds

    def test_more_iterations_take_longer(self, quiet_platform, simple_chars):
        short = Workload.pure_io("short", dataclasses.replace(simple_chars, iterations=1))
        long = Workload.pure_io("long", dataclasses.replace(simple_chars, iterations=100))
        assert (
            simulate_run(long, BASELINE_CONFIG, quiet_platform).seconds
            > simulate_run(short, BASELINE_CONFIG, quiet_platform).seconds
        )

    def test_compute_heavy_jobs_take_longer(self, quiet_platform, simple_chars):
        light = Workload(name="light", chars=simple_chars)
        heavy = Workload(name="heavy", chars=simple_chars,
                         compute_seconds_per_iteration=10.0)
        assert (
            simulate_run(heavy, BASELINE_CONFIG, quiet_platform).seconds
            > simulate_run(light, BASELINE_CONFIG, quiet_platform).seconds
        )


class TestFlushOverlap:
    def test_compute_hides_nfs_flush(self, quiet_platform, simple_chars):
        """The NFS write-back drain hides under compute phases."""
        eph_nfs = SystemConfig(
            device=DeviceKind.EPHEMERAL, file_system=FileSystemKind.NFS,
            instance_type="cc2.8xlarge", io_servers=1,
            placement=Placement.DEDICATED, stripe_bytes=None,
        )
        chars = dataclasses.replace(simple_chars, data_bytes=128 * MIB,
                                    request_bytes=4 * MIB, iterations=10)
        pure = Workload.pure_io("no-compute", chars)
        padded = Workload(name="with-compute", chars=chars,
                          compute_seconds_per_iteration=6.0)
        pure_result = simulate_run(pure, eph_nfs, quiet_platform)
        padded_result = simulate_run(padded, eph_nfs, quiet_platform)
        io_exposed_pure = pure_result.breakdown["exposed_flush"]
        io_exposed_padded = padded_result.breakdown["exposed_flush"]
        assert io_exposed_padded < io_exposed_pure


class TestValidationAndBookkeeping:
    def test_invalid_placement_raises(self, platform, simple_chars):
        small = simple_chars.scaled(32)  # 2 cc2 nodes
        workload = Workload.pure_io("tiny", small)
        with pytest.raises(ValueError, match="part-time"):
            simulate_run(workload, pvfs(4, Placement.PART_TIME), platform)

    def test_breakdown_accounts_for_total(self, workload, platform):
        result = simulate_run(workload, BASELINE_CONFIG, platform)
        assert sum(result.breakdown.values()) == pytest.approx(result.seconds, rel=0.01)

    def test_run_median_is_a_measured_rep(self, workload, platform):
        simulator = IOSimulator(platform)
        reps = [simulator.run(workload, BASELINE_CONFIG, rep=i).seconds for i in range(3)]
        median = simulator.run_median(workload, BASELINE_CONFIG, reps=3)
        assert median.seconds == sorted(reps)[1]

    def test_run_median_rejects_bad_reps(self, workload, platform):
        with pytest.raises(ValueError):
            IOSimulator(platform).run_median(workload, BASELINE_CONFIG, reps=0)

    def test_result_carries_identifiers(self, workload, platform):
        result = simulate_run(workload, BASELINE_CONFIG, platform)
        assert result.config_key == BASELINE_CONFIG.key
        assert result.workload == workload.name
        assert not result.failed

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seconds", 0.0),
            ("seconds", float("nan")),
            ("seconds", float("inf")),
            ("seconds", float("-inf")),
            ("cost", -1.0),
            ("cost", float("nan")),
            ("cost", float("inf")),
            ("cost", float("-inf")),
        ],
    )
    def test_result_rejects_non_finite_or_out_of_range(self, field, value):
        fields = {"seconds": 10.0, "cost": 0.5, field: value}
        with pytest.raises(ValueError, match=field):
            RunResult(instances=1, config_key="c", workload="w", **fields)


class TestAcrossAllCandidates:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=55))
    def test_every_candidate_simulates_positively(self, index):
        from repro.space.characteristics import AppCharacteristics, IOInterface, OpKind

        chars = AppCharacteristics(
            num_processes=64, num_io_processes=64, interface=IOInterface.MPIIO,
            iterations=10, data_bytes=16 * MIB, request_bytes=4 * MIB,
            op=OpKind.WRITE, collective=True, shared_file=True,
        )
        configs = candidate_configs(chars)
        config = configs[index % len(configs)]
        result = simulate_run(Workload.pure_io("sweep", chars), config)
        assert result.seconds > 0 and result.cost > 0
