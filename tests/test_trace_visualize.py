"""Profile recorder and poset visualisation tests."""

import pytest

from repro.apps.base import evaluate_profile
from repro.apps.redis import RedisApp, redis_benchmark_client
from repro.bench.trace import ProfileRecorder
from repro.errors import ReproError
from repro.explore import (
    ExplorationRequest,
    ProfileEvaluator,
    explore,
    generate_fig6_space,
)
from repro.explore.visualize import exploration_to_dot, poset_to_dot
from repro.explore.poset import ConfigPoset
from repro.hw.costs import DEFAULT_COSTS
from tests.conftest import make_config
from tests.test_apps_redis import boot_with_net


def record_redis(config, n_requests=20):
    instance, host = boot_with_net(config)
    with instance.run():
        server = RedisApp.make_server(instance)
        sock = instance.libc.socket(instance.net).bind(6379).listen()
        recorder = ProfileRecorder(instance, app_library="redis")
        with recorder.recording():
            instance.sched.create_thread(
                "redis",
                lambda: server.serve(sock, instance.libc, n_requests),
            )
            instance.sched.create_thread(
                "bench",
                lambda: redis_benchmark_client(host, "10.0.0.2", 6379,
                                               n_requests),
            )
            instance.sched.run()
    return recorder


class TestProfileRecorder:
    def test_derived_profile_is_usable(self):
        recorder = record_redis(make_config(isolate=("lwip",)))
        profile = recorder.derive_profile("redis-derived", n_requests=20)
        assert profile.base_cycles > 0
        layout = generate_fig6_space()[0]
        result = evaluate_profile(profile, layout, DEFAULT_COSTS, "redis")
        assert result["requests_per_second"] > 0

    def test_functional_pairs_subset_of_analytic(self):
        """Every boundary the functional run crosses is declared by the
        analytic profile (given lwip is the isolated component)."""
        recorder = record_redis(make_config(isolate=("lwip",)))
        observed = recorder.communicating_pairs()
        assert observed  # something crossed
        for pair in observed:
            assert "lwip" in pair  # only the lwip boundary exists here

    def test_lwip_sched_edge_is_cold_functionally(self):
        """The 'isolation for free' fact holds in the functional system:
        isolating lwip and uksched separately never produces a direct
        lwip<->uksched crossing."""
        config = make_config(isolate=("lwip", "uksched"), n_extra=2)
        recorder = record_redis(config)
        assert frozenset({"lwip", "uksched"}) not in \
            recorder.communicating_pairs()

    def test_work_attribution_by_component(self):
        recorder = record_redis(make_config(isolate=("lwip",)))
        work = recorder.component_work(n_requests=20)
        assert work.get("lwip", 0) > 0
        assert work.get("app", 0) > 0      # redis engine work
        assert work.get("uksched", 0) > 0  # dispatch work

    def test_recording_required_before_derive(self):
        instance, _ = boot_with_net(make_config())
        recorder = ProfileRecorder(instance)
        with pytest.raises(ReproError):
            recorder.derive_profile("x", 1)

    def test_multi_component_compartment_attribution(self):
        """Regression: with lwip AND uksched co-located in comp2, every
        comp1->comp2 crossing used to land on min(components) — always
        'lwip' — so the app<->uksched edge vanished.  Per-crossing library
        attribution (from the tracer's gate spans) recovers both edges."""
        config = make_config(isolate=("lwip", "uksched"), n_extra=1)
        recorder = record_redis(config)
        assert recorder.gate_events  # tracer rode along
        pairs = recorder.communicating_pairs()
        assert frozenset({"app", "lwip"}) in pairs
        assert frozenset({"app", "uksched"}) in pairs
        # Per-request totals over both edges match the raw transition
        # counts: attribution re-buckets crossings, never drops them.
        per_request = recorder.component_crossings(1)
        gated = sum(
            1 for event in recorder.gate_events
            if frozenset({
                recorder._component_of(event.args["src_library"]),
                recorder._component_of(event.args["library"]),
            }) != {"app"}
        )
        assert sum(per_request.values()) == pytest.approx(gated)

    def test_zero_requests_raises_repro_error(self):
        """Regression: n_requests=0 used to surface as ZeroDivisionError
        deep inside the per-request division."""
        recorder = record_redis(make_config(isolate=("lwip",)))
        for n_requests in (0, -3):
            with pytest.raises(ReproError):
                recorder.component_work(n_requests)
            with pytest.raises(ReproError):
                recorder.component_crossings(n_requests)
            with pytest.raises(ReproError):
                recorder.derive_profile("x", n_requests)


class TestDotOutput:
    def test_poset_dot_structure(self):
        layouts = generate_fig6_space()[:16]  # one strategy branch
        poset = ConfigPoset(layouts)
        dot = poset_to_dot(poset)
        assert dot.startswith("digraph flexos_poset {")
        assert dot.rstrip().endswith("}")
        assert dot.count('"A/none"') >= 1
        assert "->" in dot

    def test_exploration_dot_marks_stars_and_shades(self):
        result = explore(ExplorationRequest(
            layouts=generate_fig6_space(),
            evaluator=ProfileEvaluator(app="redis"),
            budget=500_000,
        ))
        dot = exploration_to_dot(result)
        for name in result.recommended:
            assert '* %s' % name in dot
        assert "peripheries=3" in dot
        assert "fillcolor=" in dot

    def test_edges_match_poset(self):
        layouts = generate_fig6_space()[:8]
        poset = ConfigPoset(layouts)
        dot = poset_to_dot(poset)
        assert dot.count("->") == len(poset.edges())
