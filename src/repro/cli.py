"""Command-line interface: the toolchain's front door.

Mirrors how the FlexOS artifact is driven: build an image from a safety
configuration file, inspect what the build produced, account the TCB,
and run the design-space exploration.

Usage::

    flexos-repro build redis.flexos.yaml
    flexos-repro inspect redis.flexos.yaml --linker-script
    flexos-repro tcb redis.flexos.yaml
    flexos-repro explore run --app redis --budget 500000 --jobs 4 --cache
    flexos-repro table1
    flexos-repro faults run --mechanism intel-mpk --seed 1 --faults 40
    flexos-repro faults scorecard --seed 1 --faults 40
    flexos-repro trace redis --requests 40 --out trace-redis.json
    flexos-repro metrics redis --requests 50 --out-dir obs-artifacts

Output handling is uniform: commands that produce a report accept
``--out FILE`` (default: stdout) and, where a structured form exists,
``--format text|json``; campaign-style commands share one ``--seed``.
Exit codes are consistent everywhere: 0 success, 1 a check failed or
the library reported an error, 2 unusable input (missing file).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench import format_table
from repro.core.config import loads_config
from repro.core.tcb import TcbReport
from repro.core.toolchain.build import build_image
from repro.errors import ReproError

#: Consistent process exit codes across every subcommand.
EXIT_OK = 0      # the command did what was asked
EXIT_FAIL = 1    # a check failed, or the library reported an error
EXIT_IO = 2      # unusable input (e.g. a missing file)


# -- shared option/output plumbing ------------------------------------------
def add_output_options(parser, formats=("text", "json"),
                       out_help="write the report to FILE instead of stdout"):
    """The shared ``--out`` / ``--format`` pair for report commands."""
    parser.add_argument("--out", default=None, metavar="FILE", help=out_help)
    if formats:
        parser.add_argument("--format", choices=formats, default=formats[0],
                            help="report format (default: %(default)s)")


def add_seed_option(parser, default=1,
                    help_text="deterministic seed (same seed = same run)"):
    """The shared ``--seed`` option for seeded commands."""
    parser.add_argument("--seed", type=int, default=default, help=help_text)


def write_file(path, text, out, label="report"):
    """Write ``text`` to ``path`` and tell the user where it went."""
    with open(path, "w") as handle:
        handle.write(text + "\n")
    out.write("%s: %s\n" % (label, path))
    return path


def emit(args, out, text, payload=None, label="report"):
    """Deliver a command's report per its ``--out`` / ``--format`` flags.

    ``text`` is the human rendering; ``payload`` (when the command has
    one) is the JSON-serialisable structure behind it.  Returns
    :data:`EXIT_OK` so commands can ``return emit(...)``.
    """
    if getattr(args, "format", "text") == "json":
        if payload is None:
            raise ReproError("this command has no JSON form")
        rendered = json.dumps(payload, indent=1, sort_keys=True)
    else:
        rendered = text
    if getattr(args, "out", None):
        write_file(args.out, rendered, out, label=label)
    else:
        out.write(rendered + "\n")
    return EXIT_OK


def _load_config(path, sharing, mpk_gate):
    with open(path) as handle:
        text = handle.read()
    return loads_config(text, sharing=sharing, mpk_gate=mpk_gate)


def cmd_build(args, out):
    config = _load_config(args.config, args.sharing, args.mpk_gate)
    image = build_image(config)
    report = image.transform_report
    out.write("built image for %r\n" % config.name)
    out.write("  mechanism:        %s\n" % config.mechanism)
    out.write("  compartments:     %d\n" % image.n_compartments)
    out.write("  gates inserted:   %d\n" % report.gates_inserted)
    out.write("  DSS rewrites:     %d\n" % report.dss_rewrites)
    out.write("  heap conversions: %d\n" % report.heap_conversions)
    out.write("  static moves:     %d\n" % report.static_moves)
    out.write("  wrappers:         %d\n" % report.wrappers)
    out.write("  sections:         %d\n" % len(image.sections))
    out.write("  shared variables: %d\n" % len(image.annotations))
    return EXIT_OK


def cmd_inspect(args, out):
    config = _load_config(args.config, args.sharing, args.mpk_gate)
    image = build_image(config)
    rows = []
    for comp in image.compartments:
        rows.append({
            "compartment": comp.name,
            "mechanism": comp.mechanism,
            "default": "yes" if comp.spec.default else "",
            "hardening": "+".join(sorted(h.value for h in comp.hardening))
            or "-",
            "libraries": ", ".join(comp.libraries),
            "entry points": len(image.legal_entries[comp.index]),
        })
    out.write(format_table(rows, title="image: %s" % config.name) + "\n")
    if args.linker_script:
        out.write("\n" + image.linker_script + "\n")
    return EXIT_OK


def cmd_diff(args, out):
    """Show the transformation as a unified diff (the Fig. 3 view)."""
    from repro.core.backends import get_backend
    from repro.core.toolchain.render import render_all_diffs, render_diff
    from repro.core.toolchain.sources import default_kernel_sources
    from repro.core.toolchain.transform import transform

    config = _load_config(args.config, args.sharing, args.mpk_gate)
    sources = default_kernel_sources()
    backend = get_backend(config.mechanism)
    transformed, _, _ = transform(sources, config, backend)
    if args.library:
        out.write(render_diff(sources, transformed, args.library) + "\n")
    else:
        out.write(render_all_diffs(sources, transformed) + "\n")
    return EXIT_OK


def cmd_tcb(args, out):
    config = _load_config(args.config, args.sharing, args.mpk_gate)
    report = TcbReport(config)
    summary = report.summary()
    out.write("TCB for %s (%s backend)\n" % (config.name,
                                             summary["mechanism"]))
    out.write("  components: %s\n" % ", ".join(summary["components"]))
    out.write("  core libraries:  %4d LoC\n" % summary["core_loc"])
    out.write("  backend runtime: %4d LoC\n" % summary["backend_loc"])
    out.write("  unique trusted:  %4d LoC\n" % summary["unique_loc"])
    if summary["duplicated_per_vm"]:
        out.write("  (duplicated into each of %d VMs: %d LoC resident)\n"
                  % (report.copies, report.resident_loc))
    out.write("  outside the TCB: %s\n" % ", ".join(summary["outside_tcb"]))
    return EXIT_OK


def cmd_explore_run(args, out):
    """Run the exploration engine over the Fig. 6 or full space."""
    from repro.explore import (
        EvaluationCache,
        ExplorationRequest,
        explore,
        get_evaluator,
    )
    from repro.explore.configspace import (
        generate_fig6_space,
        generate_full_space,
    )

    from repro.explore.cache import DEFAULT_CACHE_DIR

    if args.evaluator == "synthetic":
        evaluator = get_evaluator("synthetic", seed=args.seed)
    else:
        evaluator = get_evaluator("profile", app=args.app)
    layouts = (generate_full_space() if args.full_space
               else generate_fig6_space())
    cache_dir = args.cache_dir or str(DEFAULT_CACHE_DIR)
    cache = EvaluationCache(cache_dir) if args.cache else None
    result = explore(ExplorationRequest(
        layouts=layouts, evaluator=evaluator, budget=args.budget,
        jobs=args.jobs, cache=cache,
        objective=getattr(args, "objective", None),
    ))
    if args.dot:
        from repro.explore.visualize import exploration_to_dot

        write_file(args.dot, exploration_to_dot(result), out, label="poset")
    summary = result.summary()
    stats = result.engine_stats()
    if args.stats_out:
        write_file(args.stats_out,
                   json.dumps(stats, indent=1, sort_keys=True), out,
                   label="engine stats")
    lines = [
        "explored %d configurations in %d wave(s) with %d job(s): "
        "%d labelled, %d pruned, %d meet %.0f req/s"
        % (summary["configurations"], stats["waves"], args.jobs,
           summary["evaluated"], summary["pruned"], summary["passing"],
           args.budget),
    ]
    if cache is not None:
        lines.append("cache: %d hit(s), %d fresh evaluation(s) "
                     "(hit rate %.0f%%) under %s"
                     % (stats["cache_hits"], stats["fresh_evaluations"],
                        100.0 * stats["hit_rate"], cache_dir))
    unit = {"throughput": "req/s"}.get(result.objective, result.objective)
    rows = [
        {"starred": name,
         unit: "%.0f" % result.measurements[name].value}
        for name in result.recommended
    ]
    lines.append(format_table(rows) if rows
                 else "no configuration meets the budget")
    payload = {
        "summary": summary,
        "engine": stats,
        "recommended": {name: result.measurements[name].value
                        for name in result.recommended},
    }
    return emit(args, out, "\n".join(lines), payload)


def cmd_table1(args, out):
    from repro.porting import porting_effort_table

    out.write(format_table(porting_effort_table(),
                           title="Table 1: porting effort") + "\n")
    return EXIT_OK


def cmd_faults_run(args, out):
    """Run one fault-injection campaign and print its records."""
    from repro.faults.campaign import CampaignConfig, run_campaign

    config = CampaignConfig(
        mechanism=args.mechanism, mpk_gate=args.mpk_gate,
        policy=args.policy, seed=args.seed, n_faults=args.faults,
    )
    result = run_campaign(config)
    text = result.to_text() + "\n" + result.summary_line()
    payload = {
        "campaign": config.describe(),
        "counters": result.counters(),
        "containment_rate": result.containment_rate(),
        "records": [record.line() for record in result.records],
    }
    return emit(args, out, text, payload)


def cmd_faults_scorecard(args, out):
    """Run the identical campaign across all backends and tabulate."""
    from repro.bench.containment import (
        format_scorecard,
        run_scorecard,
        scorecard_rows,
    )

    results = run_scorecard(seed=args.seed, n_faults=args.faults,
                            policy=args.policy)
    lines = [format_scorecard(results)]
    if args.records:
        for result in results:
            lines.append("")
            lines.append(result.to_text())
    check_failed = False
    if args.check:
        hardware = [r for r in results
                    if r.config.mechanism in ("intel-mpk", "vm-ept")]
        check_failed = any(r.containment_rate() < 0.95 for r in hardware)
        lines.append("FAIL: hardware backend below 95% containment"
                     if check_failed
                     else "OK: all hardware backends >= 95% containment")
    payload = {
        "rows": scorecard_rows(results),
        "check": (None if not args.check
                  else ("fail" if check_failed else "ok")),
    }
    emit(args, out, "\n".join(lines), payload)
    return EXIT_FAIL if check_failed else EXIT_OK


def cmd_reconfig_plan(args, out):
    """Print the migration plan between two layouts (nothing applied)."""
    from repro.core.toolchain.build import build_image as _build
    from repro.core.vm import FlexOSInstance, Machine
    from repro.reconfig import ReconfigurationPlan, injection_points
    from repro.reconfig.driver import reconfig_config

    source = reconfig_config(args.from_mechanism, mpk_gate=args.from_gate)
    target = reconfig_config(args.to_mechanism, mpk_gate=args.to_gate)
    instance = FlexOSInstance(_build(source), machine=Machine()).boot()
    plan = ReconfigurationPlan.compute(instance, target)
    payload = {
        "source": plan.source_mechanism,
        "target": plan.target_mechanism,
        "steps": [step.line().rstrip() for step in plan.steps],
        "counts": plan.counts(),
        "injection_points": injection_points(plan),
    }
    return emit(args, out, plan.describe(), payload, label="plan")


def cmd_reconfig_apply(args, out):
    """Migrate a live redis instance between layouts, under traffic.

    With ``--harden-after N`` the migration is driven by the
    supervisor's HardenPolicy instead: faults are injected into the
    isolated compartment until the policy trips and the instance climbs
    one rung of the harden ladder.  Exit 0 when every migration
    committed and the replies match a never-migrated reference; 1 when
    a migration rolled back or the replies diverged.
    """
    from repro.reconfig import layout_fingerprint
    from repro.reconfig.driver import (
        reconfig_config,
        run_harden_probes,
        run_reconfig_redis,
    )

    if args.harden_after is not None:
        harden = run_harden_probes(
            mechanism=args.from_mechanism, mpk_gate=args.from_gate,
            harden_after=args.harden_after,
        )
        image = harden.instance.image
        lines = ["harden-on-fault: %d faults drawn, tripped after %s"
                 % (harden.faults_drawn, harden.tripped_after)]
        lines += ["  " + report.line() for report in harden.reports]
        lines.append("final layout: %s/%s"
                     % (image.backend_name, image.config.mpk_gate))
        payload = {
            "faults_drawn": harden.faults_drawn,
            "tripped_after": harden.tripped_after,
            "migrations": [r.line() for r in harden.reports],
            "final_mechanism": image.backend_name,
        }
        emit(args, out, "\n".join(lines), payload)
        return EXIT_OK if harden.hardened else EXIT_FAIL

    source = reconfig_config(args.from_mechanism, mpk_gate=args.from_gate)
    target = reconfig_config(args.to_mechanism, mpk_gate=args.to_gate)
    run = run_reconfig_redis(
        source, [target], n_requests=args.requests,
        migrate_after=args.migrate_after, inject_at=args.inject_at,
    )
    reference = run_reconfig_redis(
        target if run.committed else source, [],
        n_requests=args.requests,
    )
    replies_ok = run.replies == reference.replies
    layout_ok = (
        layout_fingerprint(run.instance, include_regions=False)
        == layout_fingerprint(reference.instance, include_regions=False)
    )
    lines = [report.line() for report in run.reports]
    lines.append("replies: %s   layout: %s"
                 % ("identical" if replies_ok else "DIVERGED",
                    "verified" if layout_ok else "HYBRID"))
    payload = {
        "migrations": [r.line() for r in run.reports],
        "committed": run.committed,
        "replies_identical": replies_ok,
        "layout_verified": layout_ok,
        "final_mechanism": run.instance.image.backend_name,
    }
    emit(args, out, "\n".join(lines), payload)
    ok = replies_ok and layout_ok and (
        run.committed or args.inject_at is not None
    )
    return EXIT_OK if ok else EXIT_FAIL


def _traced_run(args):
    """Run one functional app under a tracer; returns the FunctionalRun."""
    from repro.bench.functional import run_functional

    return run_functional(
        args.app, args.mechanism, n_requests=args.requests,
        mpk_gate=args.mpk_gate, trace=True,
    )


def cmd_trace(args, out):
    """Run an app functionally and emit a Chrome trace of the run."""
    import os

    from repro.obs import chrome_trace_json, flamegraph

    run = _traced_run(args)
    tracer = run.tracer
    path = args.out or "trace-%s.json" % args.app
    out.write("traced %s/%s: %d requests, %.0f cycles/request\n"
              % (run.app, run.mechanism, run.n_requests,
                 run.cycles_per_request))
    out.write("  events:     %d (%d gate spans, %d pairs)\n"
              % (len(tracer.events), len(tracer.events_in("gate")),
                 len(tracer.gate_pairs())))
    write_file(path, chrome_trace_json(tracer), out,
               label="  trace (chrome://tracing or perfetto)")
    if args.flamegraph:
        write_file(os.path.abspath(args.flamegraph), flamegraph(tracer),
                   out, label="  flamegraph (folded stacks)")
    return EXIT_OK


def cmd_metrics(args, out):
    """Run an app functionally and emit the aggregated metrics snapshot."""
    import os

    from repro.obs import chrome_trace_json, metrics_json

    run = _traced_run(args)
    extra = {
        "app": run.app,
        "mechanism": run.mechanism,
        "n_requests": run.n_requests,
        "cycles_per_request": run.cycles_per_request,
    }
    text = metrics_json(run.tracer.metrics, extra=extra)
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        out.write("metrics for %s/%s: %d requests, %.0f cycles/request\n"
                  % (run.app, run.mechanism, run.n_requests,
                     run.cycles_per_request))
        write_file(os.path.join(args.out_dir, "metrics-%s.json" % run.app),
                   text, out, label="  metrics")
        write_file(os.path.join(args.out_dir, "trace-%s.json" % run.app),
                   chrome_trace_json(run.tracer), out, label="  trace")
    else:
        out.write(text + "\n")
    return EXIT_OK


def cmd_load(args, out):
    """Drive an app with open-loop (or saturation) load on the SMP
    scheduler and report the latency distribution."""
    from repro.bench.load import run_load

    result = run_load(
        args.app, args.mechanism, rate_rps=args.rate,
        n_requests=args.requests, seed=args.seed,
        cores=None if args.cores == 0 else args.cores,
        connections=args.connections, mpk_gate=args.mpk_gate,
    )
    summary = result.summary()
    rows = [
        ("mode", summary["mode"]),
        ("offered rps", "%.0f" % summary["offered_rps"]
         if summary["offered_rps"] else "saturation probe"),
        ("achieved rps", "%.0f" % summary["achieved_rps"]),
        ("completed", "%d/%d" % (summary["completed"],
                                 summary["requests"])),
        ("p50 latency", "%.2f us" % summary["p50_us"]),
        ("p99 latency", "%.2f us" % summary["p99_us"]),
        ("p999 latency", "%.2f us" % summary["p999_us"]),
        ("mean latency", "%.2f us" % summary["mean_us"]),
        ("cores", "serial reference" if summary["cores"] is None
         else str(summary["cores"])),
        ("switches", str(summary["switches"])),
    ]
    text = format_table(
        rows, headers=("metric", "value"),
        title="%s/%s under load" % (args.app, args.mechanism),
    )
    return emit(args, out, text, payload=summary, label="load report")


def parse_schedule(text):
    """``"rate:n,rate:n"`` → ``[(rate_rps, n_requests), ...]``."""
    phases = []
    for phase in text.split(","):
        rate, _, count = phase.partition(":")
        try:
            phases.append((float(rate), int(count)))
        except ValueError:
            raise ReproError(
                "bad schedule phase %r (want RATE:COUNT)" % phase
            ) from None
    return phases


def cmd_autotune_run(args, out):
    """Close the loop: serve a redis load schedule with the autotuner
    sampling live telemetry and migrating the isolation layout when the
    SLO burns or fault pressure mounts.  Exit 0 when the decision
    journal validates; the journal itself rides in the JSON payload."""
    from repro.autotune import run_autotune_redis
    from repro.explore.cache import EvaluationCache

    fault_burst = None
    if args.fault_at is not None:
        fault_burst = (args.fault_at, args.faults)
    run = run_autotune_redis(
        mechanism=args.mechanism, mpk_gate=args.mpk_gate,
        schedule=parse_schedule(args.schedule), slo_us=args.slo_us,
        slo_objective=args.objective, seed=args.seed,
        connections=args.connections, window_cycles=args.window_cycles,
        every_windows=args.every_windows,
        cooldown_windows=args.cooldown_windows,
        burn_threshold=args.burn_threshold,
        gate_share_threshold=args.gate_share_threshold,
        min_improvement=args.min_improvement, fault_burst=fault_burst,
        harden_after=args.harden_after,
        cache=EvaluationCache(args.cache) if args.cache else None,
    )
    run.journal.check()
    summary = run.summary()
    lines = ["== autotune: %s/%s, %d requests, SLO p99<%.1fus ==" % (
        args.mechanism, args.mpk_gate, summary["load"]["requests"],
        args.slo_us)]
    for entry in run.journal.entries:
        trigger = entry["trigger"] or {}
        lines.append(
            "  step %2d  window %4d  %-14s %-13s %s%s" % (
                entry["step"], entry["window"], entry["policy"],
                entry["reason"],
                entry["current"],
                (" -> %s" % entry["chosen"]) if entry["chosen"] else
                ("  [%s]" % trigger["kind"]) if trigger else "",
            ))
    lines.append("steps=%d migrations=%d final=%s p99=%.2fus" % (
        run.loop.steps, run.loop.migrations, run.final_layout(),
        summary["load"]["p99_us"]))
    return emit(args, out, "\n".join(lines), payload=summary,
                label="autotune report")


def cmd_obs_report(args, out):
    """Traced functional run -> critical path + crossing matrix report."""
    from repro.obs import analyze

    run = _traced_run(args)
    analysis = analyze(run.tracer, headline={
        "app": run.app,
        "mechanism": run.mechanism,
        "requests": run.n_requests,
        "cycles/request": "%.0f" % run.cycles_per_request,
    })
    return emit(args, out, analysis.to_text(top_k=args.top),
                analysis.to_dict(args.top))


def cmd_obs_diff(args, out):
    """Per-metric deltas between two BENCH_*.json snapshots."""
    from repro.obs import diff_snapshots, load_snapshot

    baseline = load_snapshot(args.baseline_snapshot)
    current = load_snapshot(args.current_snapshot)
    diff = diff_snapshots(baseline, current,
                          baseline_label=args.baseline_snapshot,
                          current_label=args.current_snapshot)
    shown = diff.deltas if args.all else diff.changed()
    payload = {"benchmark": diff.benchmark,
               "deltas": [d.row() for d in shown]}
    return emit(args, out, diff.to_text(include_unchanged=args.all),
                payload)


def _us_to_cycles(us):
    from repro.hw.clock import XEON_4114_HZ

    return us * 1e-6 * XEON_4114_HZ


def _hub_load(args, slo_targets=(), trace=False):
    """Run one load point feeding a TelemetryHub; returns (result, hub)."""
    from repro.bench.load import run_load
    from repro.obs import TelemetryHub

    hub = TelemetryHub(window_cycles=args.window_cycles,
                       slo_targets=slo_targets)
    result = run_load(
        args.app, args.mechanism, rate_rps=args.rate,
        n_requests=args.requests, seed=args.seed,
        cores=None if args.cores == 0 else args.cores,
        connections=args.connections, mpk_gate=args.mpk_gate,
        trace=trace, hub=hub,
    )
    return result, hub


def cmd_obs_tail(args, out):
    """Load run -> windowed tail report: decomposition, SLO burn,
    slow-request exemplars."""
    from repro.obs import SloTarget, chrome_trace_json

    targets = ()
    if args.slo_us is not None:
        targets = (SloTarget("p%g-%sus" % (100.0 * args.objective,
                                           ("%g" % args.slo_us)),
                             _us_to_cycles(args.slo_us),
                             objective=args.objective),)
    result, hub = _hub_load(args, slo_targets=targets,
                            trace=bool(args.trace))
    hub.spans.check_all()
    summary = result.summary()
    text = hub.tail_report(headline={
        "app": args.app,
        "mechanism": args.mechanism,
        "p99": "%.2fus" % summary["p99_us"],
    })
    if args.trace:
        write_file(args.trace, chrome_trace_json(result.tracer), out,
                   label="trace (chrome://tracing or perfetto)")
    payload = hub.snapshot()
    payload["load"] = summary
    if args.evaluator_input:
        payload["evaluator_input"] = hub.evaluator_input()
    return emit(args, out, text, payload, label="tail report")


def cmd_obs_slo(args, out):
    """Evaluate an SLO target across isolation mechanisms under load."""
    from repro.obs import SloTarget

    threshold = _us_to_cycles(args.slo_us)
    rows = []
    payload = {"slo_us": args.slo_us, "objective": args.objective,
               "mechanisms": {}}
    for mechanism in args.mechanisms.split(","):
        args.mechanism = mechanism.strip()
        target = SloTarget("p%g" % (100.0 * args.objective), threshold,
                           objective=args.objective)
        result, hub = _hub_load(args, slo_targets=(target,))
        hub.spans.check_all()
        evaluator = hub.slos[0]
        snap = evaluator.snapshot()
        shares = hub.decomposition()["shares"]
        summary = result.summary()
        worst = evaluator.worst_window()
        rows.append((
            args.mechanism,
            "met" if snap["met"] else "VIOLATED",
            "%.2f" % snap["overall_burn"],
            "%.2f" % summary["p99_us"],
            "%.0f%%" % (100.0 * shares["queue_cycles"]),
            "%.0f%%" % (100.0 * shares["gate_cycles"]),
            "%.0f%%" % (100.0 * shares["app_cycles"]),
            "%d@%.1f" % worst if worst else "-",
        ))
        payload["mechanisms"][args.mechanism] = {
            "slo": snap, "load": summary,
            "decomposition": hub.decomposition(),
        }
    text = format_table(
        rows,
        headers=("mechanism", "slo", "burn", "p99 us", "queue", "gate",
                 "app", "worst win"),
        title="SLO %gus @ p%g, %s" % (args.slo_us, 100.0 * args.objective,
                                      args.app),
    )
    return emit(args, out, text, payload, label="slo report")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="flexos-repro",
        description="FlexOS (ASPLOS'22) reproduction toolchain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("config", help="safety configuration file")
        p.add_argument("--sharing", default="dss",
                       choices=("dss", "heap", "shared-stack"))
        p.add_argument("--mpk-gate", default="full",
                       choices=("full", "light"))

    p_build = sub.add_parser("build", help="run the build toolchain")
    add_config_args(p_build)
    p_build.set_defaults(func=cmd_build)

    p_inspect = sub.add_parser("inspect", help="show a built image")
    add_config_args(p_inspect)
    p_inspect.add_argument("--linker-script", action="store_true",
                           help="print the generated linker script")
    p_inspect.set_defaults(func=cmd_inspect)

    p_diff = sub.add_parser(
        "diff", help="show the source transformation as a unified diff",
    )
    add_config_args(p_diff)
    p_diff.add_argument("--library", default=None,
                        help="restrict the diff to one micro-library")
    p_diff.set_defaults(func=cmd_diff)

    p_tcb = sub.add_parser("tcb", help="trusted-computing-base accounting")
    add_config_args(p_tcb)
    p_tcb.set_defaults(func=cmd_tcb)

    p_explore = sub.add_parser(
        "explore", help="partial safety ordering over configuration spaces",
    )
    explore_sub = p_explore.add_subparsers(dest="explore_command",
                                           required=True)
    p_erun = explore_sub.add_parser(
        "run", help="run the wavefront engine over the Fig. 6 or full space",
    )
    from repro.explore.evaluators import APP_PROFILES

    p_erun.add_argument("--app", default="redis",
                        choices=sorted(APP_PROFILES))
    p_erun.add_argument("--budget", type=float, default=500_000,
                        help="minimum requests/s")
    p_erun.add_argument("--full-space", action="store_true",
                        help="explore all 224 partitions, not just the "
                             "Fig. 6 strategies")
    p_erun.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="evaluate each wave on N worker processes")
    p_erun.add_argument("--cache", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="reuse measurements through the "
                             "content-addressed evaluation cache")
    p_erun.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache location (default: "
                             "benchmarks/results/cache)")
    p_erun.add_argument("--evaluator", default="profile",
                        choices=("profile", "synthetic"),
                        help="profile: price the app's request profile; "
                             "synthetic: seeded engine smoke evaluator")
    from repro.explore.measurement import OBJECTIVES

    p_erun.add_argument("--objective", default=None, choices=OBJECTIVES,
                        help="ranking objective (default: the evaluator's "
                             "own, usually throughput)")
    p_erun.add_argument("--dot", metavar="FILE", default=None,
                        help="write the labelled poset as Graphviz DOT")
    p_erun.add_argument("--stats-out", metavar="FILE", default=None,
                        help="also write the engine/cache stats as JSON")
    add_seed_option(p_erun, help_text="seed for the synthetic evaluator")
    add_output_options(p_erun)
    p_erun.set_defaults(func=cmd_explore_run)

    p_table1 = sub.add_parser("table1", help="print the porting table")
    p_table1.set_defaults(func=cmd_table1)

    p_faults = sub.add_parser(
        "faults", help="fault-injection campaigns and containment",
    )
    faults_sub = p_faults.add_subparsers(dest="faults_command",
                                         required=True)

    def add_campaign_args(p):
        add_seed_option(p, help_text="campaign seed (same seed = same "
                                     "faults)")
        p.add_argument("--faults", type=int, default=40,
                       help="number of faults to inject")
        p.add_argument("--policy", default="propagate",
                       choices=("propagate", "retry", "restart",
                                "degrade"))
        add_output_options(p)

    p_frun = faults_sub.add_parser(
        "run", help="one campaign against one backend",
    )
    add_campaign_args(p_frun)
    p_frun.add_argument("--mechanism", default="intel-mpk",
                        choices=("none", "intel-mpk", "vm-ept"))
    p_frun.add_argument("--mpk-gate", default="full",
                        choices=("full", "light"))
    p_frun.set_defaults(func=cmd_faults_run)

    p_fscore = faults_sub.add_parser(
        "scorecard", help="identical campaign across all backends",
    )
    add_campaign_args(p_fscore)
    p_fscore.add_argument("--records", action="store_true",
                          help="also print per-fault records")
    p_fscore.add_argument("--check", action="store_true",
                          help="exit non-zero unless hardware backends "
                               "contain >= 95%% of cross-compartment "
                               "faults")
    p_fscore.set_defaults(func=cmd_faults_scorecard)

    p_reconfig = sub.add_parser(
        "reconfig", help="live isolation reconfiguration "
                         "(crash-safe layout migration)",
    )
    reconfig_sub = p_reconfig.add_subparsers(dest="reconfig_command",
                                             required=True)

    def add_layout_args(p):
        p.add_argument("--from-mechanism", default="intel-mpk",
                       choices=("none", "intel-mpk", "vm-ept"),
                       help="source layout's mechanism")
        p.add_argument("--from-gate", default="full",
                       choices=("full", "light"),
                       help="source layout's MPK gate flavour")
        p.add_argument("--to-mechanism", default="vm-ept",
                       choices=("none", "intel-mpk", "vm-ept"),
                       help="target layout's mechanism")
        p.add_argument("--to-gate", default="full",
                       choices=("full", "light"),
                       help="target layout's MPK gate flavour")

    p_rplan = reconfig_sub.add_parser(
        "plan", help="print the layout diff (no migration runs)",
    )
    add_layout_args(p_rplan)
    add_output_options(p_rplan)
    p_rplan.set_defaults(func=cmd_reconfig_plan)

    p_rapply = reconfig_sub.add_parser(
        "apply", help="migrate a live redis instance under traffic "
                      "and verify layout + replies",
    )
    add_layout_args(p_rapply)
    p_rapply.add_argument("--requests", type=int, default=40,
                          help="redis requests served across the run")
    p_rapply.add_argument("--migrate-after", type=int, default=10,
                          help="requests served before migrating")
    p_rapply.add_argument("--inject-at", type=int, default=None,
                          metavar="N",
                          help="arm a migration fault at checkpoint N; "
                               "exit 0 then means the rollback held "
                               "the atomicity invariant")
    p_rapply.add_argument("--harden-after", type=int, default=None,
                          metavar="N",
                          help="harden-on-fault mode: escalate the "
                               "layout after N contained faults "
                               "instead of migrating to --to-mechanism")
    add_output_options(p_rapply)
    p_rapply.set_defaults(func=cmd_reconfig_apply)

    def add_functional_args(p):
        from repro.bench.functional import FUNCTIONAL_APPS

        p.add_argument("app", choices=FUNCTIONAL_APPS,
                       help="which functional workload to run")
        p.add_argument("--requests", type=int, default=40,
                       help="requests (Redis) or INSERTs (SQLite) to run")
        p.add_argument("--mechanism", default="intel-mpk",
                       choices=("none", "intel-mpk", "vm-ept"))
        p.add_argument("--mpk-gate", default="full",
                       choices=("full", "light"))

    p_trace = sub.add_parser(
        "trace", help="run an app functionally, emit a Chrome trace",
    )
    add_functional_args(p_trace)
    add_output_options(p_trace, formats=(),
                       out_help="trace file (default: trace-<app>.json)")
    p_trace.add_argument("--flamegraph", default=None, metavar="FILE",
                         help="also write a folded-stack flamegraph")
    p_trace.set_defaults(func=cmd_trace)

    p_metrics = sub.add_parser(
        "metrics", help="run an app functionally, emit a metrics snapshot",
    )
    add_functional_args(p_metrics)
    p_metrics.add_argument("--out-dir", default=None, metavar="DIR",
                           help="write metrics-<app>.json and "
                                "trace-<app>.json here instead of stdout")
    p_metrics.set_defaults(func=cmd_metrics)

    p_load = sub.add_parser(
        "load", help="open-loop arrival-rate load on the SMP scheduler",
    )
    p_load.add_argument("app", choices=("redis", "nginx", "sqlite"))
    p_load.add_argument("--rate", type=float, default=None, metavar="RPS",
                        help="offered arrival rate in requests per virtual "
                             "second (default: closed-loop saturation "
                             "probe)")
    p_load.add_argument("--requests", type=int, default=96,
                        help="total requests across all connections")
    p_load.add_argument("--mechanism", default="intel-mpk",
                        choices=("none", "intel-mpk", "vm-ept"))
    p_load.add_argument("--mpk-gate", default="full",
                        choices=("full", "light"))
    p_load.add_argument("--cores", type=int, default=2,
                        help="virtual cores (0 = serial reference "
                             "scheduler)")
    p_load.add_argument("--connections", type=int, default=4,
                        help="client connections (worker-pool width for "
                             "sqlite)")
    add_seed_option(p_load)
    add_output_options(p_load)
    p_load.set_defaults(func=cmd_load)


    p_autotune = sub.add_parser(
        "autotune", help="closed-loop isolation autotuning under live "
                         "load",
    )
    autotune_sub = p_autotune.add_subparsers(dest="autotune_command",
                                             required=True)
    p_arun = autotune_sub.add_parser(
        "run", help="serve a redis load schedule with the autotune loop "
                    "migrating the layout from windowed telemetry",
    )
    p_arun.add_argument("--mechanism", default="intel-mpk",
                        choices=("none", "intel-mpk", "vm-ept"),
                        help="boot rung's isolation mechanism")
    p_arun.add_argument("--mpk-gate", default="full",
                        choices=("full", "light"))
    p_arun.add_argument("--schedule",
                        default="120000:150,190000:300,120000:150",
                        metavar="RATE:N,...",
                        help="piecewise Poisson phases (default: "
                             "%(default)s)")
    p_arun.add_argument("--slo-us", type=float, default=12.0, metavar="US",
                        help="p99 latency SLO in virtual microseconds")
    p_arun.add_argument("--objective", type=float, default=0.95,
                        help="fraction of requests that must meet the SLO")
    p_arun.add_argument("--window-cycles", type=float, default=100_000.0,
                        help="telemetry window width in virtual cycles")
    p_arun.add_argument("--every-windows", type=int, default=4,
                        help="sample the hub every N windows")
    p_arun.add_argument("--cooldown-windows", type=int, default=8,
                        help="windows to hold after a committed migration")
    p_arun.add_argument("--burn-threshold", type=float, default=1.0,
                        help="recent-window SLO burn that triggers "
                             "re-exploration")
    p_arun.add_argument("--gate-share-threshold", type=float, default=0.6,
                        help="gate share of total latency that triggers "
                             "re-exploration")
    p_arun.add_argument("--min-improvement", type=float, default=0.02,
                        help="hysteresis: predicted objective edge a "
                             "migration must clear")
    p_arun.add_argument("--fault-at", type=int, default=None, metavar="N",
                        help="inject a contained-fault burst once N "
                             "requests completed")
    p_arun.add_argument("--faults", type=int, default=4,
                        help="faults in the burst (with --fault-at)")
    p_arun.add_argument("--harden-after", type=int, default=3,
                        help="supervisor HardenPolicy trip count")
    p_arun.add_argument("--connections", type=int, default=4,
                        help="client connections")
    p_arun.add_argument("--cache", default=None, metavar="DIR",
                        help="evaluation cache directory (warm reruns "
                             "replay rankings without re-evaluating)")
    add_seed_option(p_arun)
    add_output_options(p_arun)
    p_arun.set_defaults(func=cmd_autotune_run)

    p_obs = sub.add_parser(
        "obs", help="trace analytics, tail latency and snapshot diffs",
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_oreport = obs_sub.add_parser(
        "report", help="critical path, crossing matrix and library "
                       "attribution for one traced functional run",
    )
    add_functional_args(p_oreport)
    p_oreport.add_argument("--top", type=int, default=10,
                           help="gate pairs / libraries to show")
    add_output_options(p_oreport)
    p_oreport.set_defaults(func=cmd_obs_report)

    p_odiff = obs_sub.add_parser(
        "diff", help="per-metric deltas between two BENCH_*.json "
                     "snapshots of the same benchmark",
    )
    p_odiff.add_argument("baseline_snapshot", help="older snapshot")
    p_odiff.add_argument("current_snapshot", help="newer snapshot")
    p_odiff.add_argument("--all", action="store_true",
                         help="also list unchanged metrics")
    add_output_options(p_odiff)
    p_odiff.set_defaults(func=cmd_obs_diff)

    def add_tail_load_args(p):
        """Load-point options shared by ``obs tail`` and ``obs slo``."""
        p.add_argument("app", choices=("redis", "nginx", "sqlite"))
        p.add_argument("--rate", type=float, default=20000.0, metavar="RPS",
                       help="offered arrival rate in requests per virtual "
                            "second (default: %(default)s)")
        p.add_argument("--requests", type=int, default=96,
                       help="total requests across all connections")
        p.add_argument("--mpk-gate", default="full",
                       choices=("full", "light"))
        p.add_argument("--cores", type=int, default=2,
                       help="virtual cores (0 = serial reference "
                            "scheduler)")
        p.add_argument("--connections", type=int, default=4,
                       help="client connections (worker-pool width for "
                            "sqlite)")
        p.add_argument("--window-cycles", type=float, default=100_000.0,
                       help="telemetry window width in virtual cycles")
        p.add_argument("--objective", type=float, default=0.99,
                       help="SLO objective (fraction of requests under "
                            "the threshold; default %(default)s)")
        add_seed_option(p)
        add_output_options(p)

    p_otail = obs_sub.add_parser(
        "tail", help="run load feeding the telemetry hub: windowed "
                     "series, latency decomposition, SLO burn, slow-"
                     "request exemplars",
    )
    add_tail_load_args(p_otail)
    p_otail.add_argument("--mechanism", default="intel-mpk",
                         choices=("none", "intel-mpk", "vm-ept"))
    p_otail.add_argument("--slo-us", type=float, default=None,
                         metavar="US",
                         help="latency SLO threshold in virtual "
                              "microseconds (enables burn-rate and "
                              "exemplar tracking)")
    p_otail.add_argument("--trace", default=None, metavar="FILE",
                         help="also write a Chrome trace of the run "
                              "(one lane per virtual core)")
    p_otail.add_argument("--evaluator-input", action="store_true",
                         help="include the live-evaluator window series "
                              "in the JSON payload")
    p_otail.set_defaults(func=cmd_obs_tail)

    p_oslo = obs_sub.add_parser(
        "slo", help="evaluate one latency SLO across isolation "
                    "mechanisms under identical load",
    )
    add_tail_load_args(p_oslo)
    p_oslo.add_argument("--slo-us", type=float, default=200.0,
                        metavar="US",
                        help="latency SLO threshold in virtual "
                             "microseconds (default %(default)s)")
    p_oslo.add_argument("--mechanisms", default="none,intel-mpk",
                        help="comma-separated mechanisms to compare "
                             "(default: %(default)s)")
    p_oslo.set_defaults(func=cmd_obs_slo)

    return parser


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except FileNotFoundError as exc:
        out.write("error: %s\n" % exc)
        return EXIT_IO
    except ReproError as exc:
        out.write("error: %s\n" % exc)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
