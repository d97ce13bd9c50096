"""Fault injection, supervision policies, campaigns, and degrade paths."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.host import HostEndpoint
from repro.apps.nginx import NginxApp
from repro.apps.redis import RedisApp
from repro.apps.sqlite import SqliteApp
from repro.core.toolchain.build import build_image
from repro.core.vm import FlexOSInstance, Machine
from repro.errors import (
    AllocationError,
    ConfigError,
    DegradedService,
    ProtectionFault,
)
from repro.faults.campaign import (
    CampaignConfig,
    lwip_probe,
    run_campaign,
)
from repro.faults.injector import (
    CROSS_COMPARTMENT_KINDS,
    FAULT_KINDS,
    TAMPER_VALUE,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.faults.supervisor import POLICY_NAMES, make_policy
from repro.hw.costs import CostModel
from repro.kernel.net.device import LinkedDevices
from repro.porting import PortingWorkflow
from tests.conftest import make_config


def boot(config, with_net=False):
    costs = CostModel.xeon_4114()
    machine = Machine(costs)
    link = LinkedDevices(costs) if with_net else None
    instance = FlexOSInstance(
        build_image(config), machine=machine,
        net_device=link.a if with_net else None,
    ).boot()
    if with_net:
        host = HostEndpoint(link.b, "10.0.0.1", costs, machine.clock)
        return instance, host
    return instance


def armed_instance(mechanism="intel-mpk", isolate=("lwip",), **kwargs):
    """A booted instance with an injector aimed at the app's secret."""
    config = make_config(mechanism=mechanism, isolate=isolate, **kwargs)
    instance = boot(config)
    injector = instance.attach_injector(FaultInjector())
    secret = instance.private_object("app", "app_secret", value="token")
    for lib in isolate:
        comp = instance.image.compartment_of(lib).index
        injector.victims[comp] = secret
    return instance, injector, secret


class TestFaultPlan:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            FaultSpec("meteor-strike")
        with pytest.raises(ConfigError):
            FaultPlan(1, 5, kinds=("stray-read", "bogus"))

    def test_rejects_empty_targets(self):
        with pytest.raises(ConfigError):
            FaultPlan(1, 5, targets=())

    @given(seed=st.integers(0, 2**32), n=st.integers(0, 64))
    @settings(max_examples=60, deadline=None)
    def test_same_seed_same_plan(self, seed, n):
        a = FaultPlan(seed, n, targets=(1, 2))
        b = FaultPlan(seed, n, targets=(1, 2))
        assert a.describe() == b.describe()
        assert [s.line() for s in a] == [s.line() for s in b]

    def test_different_seeds_differ(self):
        a = FaultPlan(1, 40).describe()
        b = FaultPlan(2, 40).describe()
        assert a != b

    def test_plan_draws_only_requested_kinds(self):
        plan = FaultPlan(3, 50, kinds=("alloc-oom", "net-drop"))
        assert {s.kind for s in plan} == {"alloc-oom", "net-drop"}
        assert len(plan) == 50


class TestInjector:
    def test_stray_write_faults_under_mpk(self):
        instance, injector, secret = armed_instance()
        lwip = instance.image.compartment_of("lwip").index
        injector.arm(FaultSpec("stray-write", dst=lwip))
        with instance.run():
            with pytest.raises(ProtectionFault):
                lwip_probe(token=1)
        assert secret.peek() == "token"            # data never corrupted
        assert injector.last_event.raised == "ProtectionFault"
        assert not injector.last_event.leaked

    def test_stray_write_leaks_without_isolation(self):
        instance, injector, secret = armed_instance(mechanism="none")
        lwip = instance.image.compartment_of("lwip").index
        injector.arm(FaultSpec("stray-write", dst=lwip))
        with instance.run():
            assert lwip_probe(token=1) == 3        # call completes...
        assert secret.peek() == TAMPER_VALUE       # ...and the data is gone
        assert injector.last_event.leaked

    def test_one_shot_arm_fires_once(self):
        instance, injector, _ = armed_instance()
        lwip = instance.image.compartment_of("lwip").index
        injector.arm(FaultSpec("stray-read", dst=lwip))
        with instance.run():
            with pytest.raises(ProtectionFault):
                lwip_probe(token=1)
            assert lwip_probe(token=1) == 3        # second call is clean
        assert injector.injected == 1

    def test_non_gate_kind_cannot_be_armed(self):
        injector = FaultInjector()
        with pytest.raises(ConfigError):
            injector.arm(FaultSpec("net-drop"))

    def test_net_drop_and_dup(self):
        costs = CostModel.xeon_4114()
        link = LinkedDevices(costs)
        injector = FaultInjector()
        injector.inject_net(link.b, "net-drop")
        link.a.transmit(b"x" * 60)
        assert link.b.rx_frames == 0 and link.b.dropped == 1
        injector.inject_net(link.b, "net-dup")
        link.a.transmit(b"y" * 60)
        assert link.b.rx_frames == 2 and link.b.duplicated == 1


class TestSupervisionPolicies:
    def test_retry_replays_transient_fault(self):
        instance, injector, _ = armed_instance()
        instance.set_fault_policy("lwip", "retry")
        lwip = instance.image.compartment_of("lwip").index
        injector.arm(FaultSpec("rpc-drop", dst=lwip))
        with instance.run():
            # First attempt loses the descriptor; the retry succeeds.
            assert lwip_probe(token=3) == 7
        events = instance.supervisor.events_for(lwip)
        assert [e.action for e in events] == ["retry"]
        assert events[0].fault_type == "RpcDropFault"

    def test_retry_never_replays_stray_access(self):
        instance, injector, _ = armed_instance()
        instance.set_fault_policy("lwip", "retry")
        lwip = instance.image.compartment_of("lwip").index
        injector.arm(FaultSpec("stray-read", dst=lwip))
        with instance.run():
            with pytest.raises(ProtectionFault):
                lwip_probe(token=1)
        assert [e.action for e in instance.supervisor.events] == \
            ["propagate"]

    def test_retry_bounded(self):
        instance, injector, _ = armed_instance()
        instance.set_fault_policy("lwip", "retry", max_retries=2)
        lwip = instance.image.compartment_of("lwip").index
        heap = instance.memmgr.heap_of(lwip)
        heap.fail_next(10)                         # outlasts the budget
        with instance.run():
            with pytest.raises(AllocationError):
                from repro.faults.campaign import lwip_alloc_probe

                lwip_alloc_probe(heap)
        actions = [e.action for e in instance.supervisor.events]
        assert actions == ["retry", "retry", "propagate"]

    def test_restart_resets_heap_and_replays(self):
        instance, injector, _ = armed_instance()
        instance.set_fault_policy("lwip", "restart")
        lwip = instance.image.compartment_of("lwip").index
        heap = instance.memmgr.heap_of(lwip)
        heap.fail_next(1)
        with instance.run():
            from repro.faults.campaign import lwip_alloc_probe

            # The restart installs a *fresh* allocator over the same
            # region (dropping the armed failure) and replays the call.
            assert lwip_alloc_probe(instance.memmgr.heap_of(lwip)) == 64
        assert instance.memmgr.heap_resets == 1
        assert instance.supervisor.restarts == {lwip: 1}
        assert instance.memmgr.heap_of(lwip) is not heap

    def test_degrade_wraps_fault(self):
        instance, injector, _ = armed_instance()
        instance.set_fault_policy("lwip", "degrade")
        lwip = instance.image.compartment_of("lwip").index
        injector.arm(FaultSpec("stray-read", dst=lwip))
        with instance.run():
            with pytest.raises(DegradedService) as exc:
                lwip_probe(token=1)
        assert exc.value.compartment == lwip
        assert isinstance(exc.value.cause, ProtectionFault)
        # The original fault context travels with the wrapper.
        assert exc.value.context is not None
        assert exc.value.context.library == "lwip"

    def test_policy_registry(self):
        assert POLICY_NAMES == ("degrade", "harden", "propagate",
                                "restart", "retry")
        with pytest.raises(ConfigError):
            make_policy("reboot-the-universe")

    def test_supervision_charges_cycles(self):
        instance, injector, _ = armed_instance()
        instance.set_fault_policy("lwip", "retry")
        lwip = instance.image.compartment_of("lwip").index
        injector.arm(FaultSpec("rpc-drop", dst=lwip))
        with instance.run():
            before = instance.clock.cycles
            lwip_probe(token=3)
            charged = instance.clock.cycles - before
        # Dispatch + backoff + two full crossings are all on the clock.
        assert charged > 2 * 400.0


class TestCampaignDeterminism:
    def test_two_runs_byte_identical(self):
        config = CampaignConfig(seed=11, n_faults=18)
        assert run_campaign(config).to_text() == \
            run_campaign(config).to_text()

    @given(seed=st.integers(0, 1000),
           policy=st.sampled_from(POLICY_NAMES))
    @settings(max_examples=6, deadline=None)
    def test_replay_property(self, seed, policy):
        """Same (seed, config) -> byte-identical campaign records, for
        any seed and any recovery policy."""
        config = CampaignConfig(seed=seed, n_faults=6, policy=policy)
        assert run_campaign(config).to_text() == \
            run_campaign(config).to_text()

    def test_backends_face_identical_plan(self):
        mpk = run_campaign(CampaignConfig("intel-mpk", seed=4,
                                          n_faults=12))
        none = run_campaign(CampaignConfig("none", seed=4, n_faults=12))
        assert [(r.kind, r.dst) for r in mpk.records] == \
            [(r.kind, r.dst) for r in none.records]

    def test_containment_split(self):
        mpk = run_campaign(CampaignConfig("intel-mpk", seed=9,
                                          n_faults=24))
        none = run_campaign(CampaignConfig("none", seed=9, n_faults=24))
        assert mpk.containment_rate() >= 0.95
        assert none.containment_rate() == 0.0
        xcomp = [r for r in none.records if r.cross_compartment]
        assert xcomp and all(r.leaked for r in xcomp)

    def test_all_kinds_reachable(self):
        result = run_campaign(CampaignConfig("intel-mpk", seed=1,
                                             n_faults=60))
        kinds_seen = {r.kind for r in result.records}
        assert kinds_seen == set(result.config.kinds)
        assert all(r.detected for r in result.records)


def tolerant_redis_client(host, server_ip, port, n_requests):
    """A redis-benchmark that counts degraded replies instead of dying."""
    sock = host.socket()
    yield from host.connect_blocking(sock, server_ip, port)
    ok = degraded = 0
    for _ in range(n_requests):
        host.send(sock, b"PING\r\n")
        reply = yield from host.recv_until(sock)
        if reply.startswith(b"-ERR server degraded"):
            degraded += 1
        else:
            ok += 1
    host.close(sock)
    return ok, degraded


class TestDegradedApplications:
    def test_redis_loop_completes_degraded(self):
        """Periodic faults in the redis compartment under the degrade
        policy: every request still gets a RESP reply and the benchmark
        loop runs to completion."""
        config = make_config(isolate=("redis",))
        instance, host = boot(config, with_net=True)
        injector = instance.attach_injector(FaultInjector())
        redis_idx = instance.image.compartment_of("redis").index
        injector.victims[redis_idx] = instance.private_object(
            "app", "app_secret", value="token",
        )
        instance.set_fault_policy("redis", "degrade")
        injector.every(3, FaultSpec("stray-read", dst=redis_idx))
        n_requests = 12
        with instance.run():
            server = RedisApp.make_server(instance)
            sock = instance.libc.socket(instance.net).bind(6379).listen()
            instance.sched.create_thread(
                "redis",
                lambda: server.serve(sock, instance.libc, n_requests),
            )
            client = instance.sched.create_thread(
                "bench",
                lambda: tolerant_redis_client(host, "10.0.0.2", 6379,
                                              n_requests),
            )
            instance.sched.run()
        ok, degraded = client.result
        assert ok + degraded == n_requests
        assert degraded == server.degraded > 0
        assert ok > 0                              # service still served

    def test_nginx_answers_503_when_degraded(self):
        config = make_config(isolate=("nginx",))
        instance = boot(config)
        injector = instance.attach_injector(FaultInjector())
        nginx_idx = instance.image.compartment_of("nginx").index
        injector.victims[nginx_idx] = instance.private_object(
            "app", "app_secret", value="token",
        )
        instance.set_fault_policy("nginx", "degrade")
        with instance.run():
            server = NginxApp.make_server(instance)
            server.publish("/index.html", b"<h1>hello</h1>")
            injector.arm(FaultSpec("stray-read", dst=nginx_idx))
            degraded = server.handle_degradable(b"GET /index.html HTTP/1.1")
            clean = server.handle_degradable(b"GET /index.html HTTP/1.1")
        assert degraded.startswith(b"HTTP/1.1 503 Service Unavailable")
        assert b"ProtectionFault" in degraded
        assert clean.startswith(b"HTTP/1.1 200 OK")
        assert server.degraded == 1

    def test_sqlite_aborts_transaction_when_degraded(self):
        config = make_config(isolate=("sqlite",))
        instance = boot(config)
        injector = instance.attach_injector(FaultInjector())
        sqlite_idx = instance.image.compartment_of("sqlite").index
        injector.victims[sqlite_idx] = instance.private_object(
            "app", "app_secret", value="token",
        )
        instance.set_fault_policy("sqlite", "degrade")
        n_inserts, period = 8, 3
        with instance.run():
            engine = SqliteApp.make_engine(instance)
            engine.execute("CREATE TABLE kv (k, v)")
            injector.every(period, FaultSpec("stray-read",
                                             dst=sqlite_idx))
            results = [
                engine.execute_degradable(
                    "INSERT INTO kv (k, v) VALUES (%d, 'v%d')" % (i, i))
                for i in range(n_inserts)
            ]
            injector._periodic.clear()
            count = engine.execute("SELECT COUNT(*) FROM kv")
        assert engine.aborted == results.count(None) > 0
        # Aborted statements left no partial state behind.
        assert count == n_inserts - engine.aborted
        assert not engine.pager.in_transaction


class TestCrashReports:
    def test_workflow_renders_fault_context(self):
        config = make_config(isolate=("lwip",))
        instance = boot(config)
        private = instance.private_object("lwip", "rx_ring", value=1)
        shared = {}

        def workload():
            with instance.run():
                (shared.get("rx_ring") or private).read(instance.ctx)

        def share(fault):
            shared["rx_ring"] = instance.shared_object(
                "rx_ring", value=private.peek(),
            )

        report = PortingWorkflow(instance).run(workload, share)
        assert report.clean and len(report.crash_reports) == 1
        text = report.crash_reports[0]
        assert "==== protection fault ====" in text
        assert "'rx_ring'" in text
        assert "PKRU keys:" in text
        assert "gate depth:" in text


def test_fault_kind_taxonomy():
    assert CROSS_COMPARTMENT_KINDS < set(FAULT_KINDS)
    assert "alloc-oom" not in CROSS_COMPARTMENT_KINDS


class TestRetryBackoff:
    def test_linear_is_the_default(self):
        policy = make_policy("retry", backoff_cycles=100.0)
        assert policy.backoff == "linear"
        assert [policy._wait_for(i) for i in range(3)] == \
            [100.0, 200.0, 300.0]

    def test_exp_jitter_seeded_and_bounded(self):
        draws = [
            [make_policy("retry", backoff="exp-jitter", seed=7,
                         backoff_cycles=100.0)._wait_for(i)
             for i in range(4)]
            for _ in range(2)
        ]
        # Same seed -> the exact same wait sequence.
        assert draws[0] == draws[1]
        # Each wait is 2^n * backoff scaled into [0.5, 1.0).
        for i, wait in enumerate(draws[0]):
            assert 50.0 * 2 ** i <= wait < 100.0 * 2 ** i
        other = [make_policy("retry", backoff="exp-jitter", seed=8,
                             backoff_cycles=100.0)._wait_for(i)
                 for i in range(4)]
        assert other != draws[0]

    def test_exp_jitter_recorded_in_events(self):
        instance, injector, _ = armed_instance()
        instance.set_fault_policy("lwip", "retry", backoff="exp-jitter",
                                  seed=3)
        lwip = instance.image.compartment_of("lwip").index
        injector.arm(FaultSpec("rpc-drop", dst=lwip))
        with instance.run():
            assert lwip_probe(token=3) == 7
        event = instance.supervisor.events_for(lwip)[0]
        assert 200.0 <= event.wait_cycles < 400.0   # 400 * [0.5, 1.0)
        assert event.timestamp > 0
        assert "wait=%.0f" % event.wait_cycles in event.line()

    def test_unknown_backoff_rejected(self):
        with pytest.raises(ConfigError):
            make_policy("retry", backoff="fibonacci")


class TestRestartHandlerOrdering:
    def test_handlers_run_in_registration_order(self):
        instance, injector, _ = armed_instance()
        lwip = instance.image.compartment_of("lwip").index
        order = []
        # boot() already registered the heap reset; ours run after it,
        # in the order they were added.
        instance.supervisor.add_restart_handler(
            lwip, lambda: order.append(("first",
                                        instance.memmgr.heap_resets)),
        )
        instance.supervisor.add_restart_handler(
            lwip, lambda: order.append(("second",
                                        instance.memmgr.heap_resets)),
        )
        instance.supervisor.restart_compartment(lwip)
        assert order == [("first", 1), ("second", 1)]
        assert instance.supervisor.restarts == {lwip: 1}

    def test_restart_policy_runs_added_handlers(self):
        instance, injector, _ = armed_instance()
        instance.set_fault_policy("lwip", "restart")
        lwip = instance.image.compartment_of("lwip").index
        resets_seen = []
        instance.supervisor.add_restart_handler(
            lwip, lambda: resets_seen.append(instance.memmgr.heap_resets),
        )
        instance.memmgr.heap_of(lwip).fail_next(1)
        with instance.run():
            from repro.faults.campaign import lwip_alloc_probe

            assert lwip_alloc_probe(instance.memmgr.heap_of(lwip)) == 64
        # Ran exactly once, after the heap was already reset.
        assert resets_seen == [1]


class TestHardenPolicyCounting:
    def test_counts_distinct_faults_not_retries(self):
        from repro.faults.supervisor import Supervisor

        policy = make_policy("harden", after=2)
        supervisor = Supervisor()
        fault = AllocationError("oom")
        policy.decide(fault, 0, supervisor, 1)
        policy.decide(fault, 1, supervisor, 1)   # same call retried
        policy.decide(fault, 2, supervisor, 1)
        assert policy.pending == []
        policy.decide(fault, 0, supervisor, 1)   # second distinct fault
        assert policy.pending == [1]
        assert policy.take_pending() == [1]
        assert policy.take_pending() == []


class TestScorecardDeterminism:
    def test_supervision_rows_sorted_and_stable(self):
        config = CampaignConfig(seed=5, n_faults=12, policy="retry")
        result = run_campaign(config)
        assert result.supervision
        keys = [(e.compartment, e.timestamp, e.attempt)
                for e in result.supervision]
        assert keys == sorted(keys)
        text = result.to_text()
        assert "supervision:" in text
        assert run_campaign(config).to_text() == text
