"""Open-loop load generation against the functional apps.

The figure benchmarks and :mod:`repro.bench.functional` are *closed
loop*: one request is in flight at a time, so isolation cost can never
compete with queueing delay.  This module drives the real apps — actual
TCP bytes for Redis/Nginx, the journalled VFS for SQLite — with **seeded
Poisson arrivals at a configurable rate**: requests are injected at
their scheduled arrival times whether or not earlier ones completed, and
latency is measured from the *scheduled arrival* to reply completion.
That is the open-loop discipline (the coordinated-omission-free one):
when the system falls behind, the backlog grows and the tail latencies
show it.

Everything runs on the virtual clock, so a load run is deterministic
for a given seed: identical latencies, identical percentiles, and a
committed trajectory point that regenerates byte-identically.

Modes:

* ``rate_rps`` set — open loop at that many requests per virtual
  second, arrivals drawn from a seeded exponential inter-arrival
  distribution, spread round-robin over ``connections`` pipelined
  client connections.
* ``rate_rps=None`` — closed-loop saturation probe: every connection
  keeps exactly one request in flight, measuring the system's ceiling
  throughput (the rate an open-loop run cannot exceed).

The servers run on the instance's scheduler — serial reference when
``cores is None``, the :class:`~repro.kernel.smp.SmpScheduler` on N
virtual cores otherwise — so one harness measures every
(isolation config × core count × arrival rate) point.
"""

from __future__ import annotations

import random
from collections import deque

from repro.apps.host import HostEndpoint
from repro.apps.nginx import _RESPONSE_TEMPLATE, NginxApp
from repro.apps.redis import RedisApp
from repro.apps.sqlite import SqliteApp
from repro.bench.functional import DEFAULT_ISOLATE, config_for
from repro.core.toolchain.build import build_image
from repro.core.vm import FlexOSInstance, Machine
from repro.errors import NetworkError, ReproError
from repro.hw.costs import CostModel
from repro.kernel.net.device import LinkedDevices
from repro.kernel.sched import WaitQueue, block, sleep, yield_
from repro.obs import Tracer, tracing

LOAD_APPS = ("redis", "nginx", "sqlite")

#: Library split per app (the paper's canonical victims).
LOAD_ISOLATE = {
    "redis": DEFAULT_ISOLATE["redis"],
    "nginx": ("lwip",),
    "sqlite": DEFAULT_ISOLATE["sqlite"],
}

#: Consecutive empty polls before a reaper declares the run wedged.
_MAX_STALL_POLLS = 300_000


def poisson_offsets_cycles(rate_rps, n, seed, clock):
    """``n`` cumulative Poisson arrival offsets, in virtual cycles.

    Inter-arrival gaps are exponential with mean ``1/rate_rps`` virtual
    seconds, drawn from a :class:`random.Random` seeded with ``seed`` —
    the same seed always produces the same arrival schedule.
    """
    if rate_rps <= 0:
        raise ReproError("arrival rate must be positive: %r" % rate_rps)
    rng = random.Random(seed)
    offsets = []
    t = 0.0
    for _ in range(n):
        t += rng.expovariate(rate_rps)
        offsets.append(t * clock.freq_hz)
    return offsets


def schedule_offsets_cycles(schedule, seed, clock):
    """Arrival offsets for piecewise-constant Poisson phases.

    ``schedule`` is a sequence of ``(rate_rps, n_requests)`` phases.
    One seeded rng draws every gap and time accumulates across phases,
    so a load *shift* is a rate change mid-stream of one arrival
    process — exactly the signal the autotuner reacts to — not a fresh
    schedule restarted at zero.
    """
    rng = random.Random(seed)
    offsets = []
    t = 0.0
    for rate_rps, n in schedule:
        if rate_rps <= 0:
            raise ReproError(
                "arrival rate must be positive: %r" % rate_rps)
        if n < 1:
            raise ReproError(
                "each schedule phase needs >= 1 request: %r" % n)
        for _ in range(n):
            t += rng.expovariate(rate_rps)
            offsets.append(t * clock.freq_hz)
    return offsets


def _arrival_offsets(rate_rps, n_requests, schedule, seed, clock):
    """Open-loop arrival offsets: the schedule's phases when given,
    else ``n_requests`` Poisson arrivals at ``rate_rps``."""
    if schedule is not None:
        return schedule_offsets_cycles(schedule, seed, clock)
    return poisson_offsets_cycles(rate_rps, n_requests, seed, clock)


def _percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list (p in [0, 100])."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * p // 100))  # ceil
    return sorted_values[int(rank) - 1]


class LoadResult:
    """One completed load run: latencies, throughput, core accounting."""

    def __init__(self, app, mechanism, mode, offered_rps, n_requests,
                 completed, latencies_cycles, first_cycles, last_cycles,
                 reply_bytes, clock, cores, core_stats, switches,
                 tracer=None, schedule=None):
        self.app = app
        self.mechanism = mechanism
        self.mode = mode                    # "open" | "closed"
        self.offered_rps = offered_rps      # None in closed-loop mode
        self.n_requests = n_requests
        self.completed = completed
        #: Ascending request latencies, virtual cycles.
        self.latencies_cycles = sorted(latencies_cycles)
        self.first_cycles = first_cycles    # first injection
        self.last_cycles = last_cycles      # last completion
        self.reply_bytes = reply_bytes
        self.clock = clock
        self.cores = cores                  # None = serial reference
        self.core_stats = core_stats        # [] under the serial sched
        self.switches = switches
        self.tracer = tracer
        self.schedule = schedule            # [(rate_rps, n), ...] | None

    # -- derived --------------------------------------------------------------
    @property
    def elapsed_cycles(self):
        return self.last_cycles - self.first_cycles

    @property
    def achieved_rps(self):
        seconds = self.elapsed_cycles / self.clock.freq_hz
        return self.completed / seconds if seconds > 0 else 0.0

    def percentile_cycles(self, p):
        return _percentile(self.latencies_cycles, p)

    def percentile_us(self, p):
        return self.clock.cycles_to_ns(self.percentile_cycles(p)) / 1e3

    @property
    def mean_latency_us(self):
        if not self.latencies_cycles:
            return 0.0
        mean = sum(self.latencies_cycles) / len(self.latencies_cycles)
        return self.clock.cycles_to_ns(mean) / 1e3

    def summary(self):
        """JSON-serialisable summary (virtual-clock values only)."""
        summary = {
            "app": self.app,
            "mechanism": self.mechanism,
            "mode": self.mode,
            "offered_rps": self.offered_rps,
            "achieved_rps": self.achieved_rps,
            "requests": self.n_requests,
            "completed": self.completed,
            "reply_bytes": self.reply_bytes,
            "cores": self.cores,
            "p50_us": self.percentile_us(50),
            "p99_us": self.percentile_us(99),
            "p999_us": self.percentile_us(99.9),
            "max_us": self.percentile_us(100),
            "mean_us": self.mean_latency_us,
            "core_stats": self.core_stats,
            "switches": self.switches,
        }
        if self.schedule is not None:
            # Only scheduled runs carry the key, so single-rate runs
            # keep their committed result bytes.
            summary["schedule"] = [list(phase) for phase in self.schedule]
        return summary

    def __repr__(self):
        rate = ("%.0f rps" % self.offered_rps
                if self.offered_rps else "saturation")
        return "LoadResult(%s/%s %s: p50=%.1fus p99=%.1fus, %.0f rps)" % (
            self.app, self.mechanism, rate, self.percentile_us(50),
            self.percentile_us(99), self.achieved_rps,
        )


def _boot_with_net(mechanism, isolate, mpk_gate, cores, config=None):
    costs = CostModel.xeon_4114()
    machine = Machine(costs)
    link = LinkedDevices(costs)
    instance = FlexOSInstance(
        build_image(config if config is not None
                    else config_for(mechanism, isolate, mpk_gate)),
        machine=machine, net_device=link.a, cores=cores,
    ).boot()
    host = HostEndpoint(link.b, "10.0.0.1", costs, machine.clock)
    return instance, host, machine


def _tracer_scope(trace, tracer, clock, hub=None):
    from contextlib import nullcontext

    if hub is not None:
        hub.bind_clock(clock)
        if tracer is None:
            tracer = hub.tracer(keep_events=trace)
        else:
            # Caller brought a tracer; it keeps its registry, and the
            # hub's span tracker drives the windows.
            tracer.spans = hub.spans
    if tracer is None and trace:
        tracer = Tracer(clock=clock, keep_events=False)
    scope = tracing(tracer) if tracer is not None else nullcontext()
    return tracer, scope


def _core_stats(sched):
    stats = getattr(sched, "core_stats", None)
    return stats() if stats is not None else []


def _split(n, buckets):
    """Spread ``n`` items over ``buckets`` (first buckets get the rest)."""
    base, extra = divmod(n, buckets)
    return [base + (1 if i < extra else 0) for i in range(buckets)]


def _run_tcp_load(app, mechanism, *, rate_rps, n_requests, seed, cores,
                  connections, mpk_gate, trace, tracer, hub,
                  config=None, schedule=None, background=()):
    """Open- or closed-loop load against a TCP app (redis or nginx)."""
    if app == "redis":
        port = 6379
        request = b"GET loadkey\r\n"
        reply = b"$-1\r\n"
        make_server = RedisApp.make_server
        served_of = lambda server: server.commands  # noqa: E731
    else:
        port = 80
        request = b"GET /load.html HTTP/1.1\r\nHost: flexos\r\n\r\n"
        body = b"<h1>flexos load</h1>"
        reply = _RESPONSE_TEMPLATE % (200, b"OK", len(body)) + body
        make_server = NginxApp.make_server
        served_of = lambda server: server.requests  # noqa: E731

    instance, host, machine = _boot_with_net(
        mechanism, LOAD_ISOLATE[app], mpk_gate, cores, config=config,
    )
    clock = machine.clock
    sched = instance.sched
    counts = _split(n_requests, connections)
    latencies = []
    reply_bytes = [0]
    window = {"first": None, "last": 0.0}
    tracer, scope = _tracer_scope(trace, tracer, clock, hub)
    spans = hub.spans if hub is not None else None
    if spans is not None:
        # One span feed per connection: the handler threads are created
        # in accept order, which matches the harness's connect order, so
        # connection index i is served by "<app>-conn-i"; requests on a
        # connection are served FIFO (one TCP byte stream).
        for index in range(connections):
            spans.register_feed("%s-conn-%d" % (app, index), app)
    with scope, instance.run():
        server = make_server(instance)
        if app == "nginx":
            server.publish("/load.html", body)
        sock = instance.libc.socket(instance.net).bind(port).listen()
        sched.create_thread(
            "%s-acceptor" % app,
            lambda: server.serve_connections(
                sock, instance.libc, sched, connections, max(counts),
            ),
        )
        socks = [host.socket() for _ in range(connections)]

        def reaper(index):
            """Match fixed-size replies FIFO against pending arrivals."""
            def body():
                pending = pendings[index]
                buffer = bytearray()
                done = 0
                stalled = 0
                rlen = len(reply)
                while done < counts[index]:
                    data = host.try_recv(socks[index], 65536)
                    if data:
                        stalled = 0
                        buffer.extend(data)
                        while len(buffer) >= rlen:
                            got = bytes(buffer[:rlen])
                            del buffer[:rlen]
                            if got != reply:
                                raise ReproError(
                                    "connection %d: bad reply %r"
                                    % (index, got)
                                )
                            sent_at = pending.popleft()
                            now = clock.cycles
                            latencies.append(now - sent_at)
                            if spans is not None:
                                spans.complete_next(
                                    "%s-conn-%d" % (app, index), now=now,
                                )
                            window["last"] = max(window["last"], now)
                            done += 1
                        continue
                    stalled += 1
                    if stalled > _MAX_STALL_POLLS:
                        raise NetworkError(
                            "load reaper %d stalled at %d/%d replies"
                            % (index, done, counts[index])
                        )
                    yield yield_()
                reply_bytes[0] += done * rlen
                return done
            return body

        def loadgen(offsets):
            """Inject requests at their scheduled arrival times."""
            def body():
                start = window["first"]
                for i, offset in enumerate(offsets):
                    due = start + offset
                    now = clock.cycles
                    if due > now:
                        yield sleep(clock.cycles_to_ns(due - now))
                    index = i % connections
                    pendings[index].append(due)
                    if spans is not None:
                        spans.inject(
                            "%s-conn-%d" % (app, index),
                            name="%s-%d" % (app, i), arrival_cycles=due,
                        )
                    host.send(socks[index], request)
                return len(offsets)
            return body

        def closed_client(index):
            """Keep exactly one request in flight on this connection."""
            def body():
                yield from host.connect_blocking(
                    socks[index], instance.ip, port,
                )
                rlen = len(reply)
                done = 0
                for i in range(counts[index]):
                    sent_at = clock.cycles
                    if window["first"] is None or \
                            sent_at < window["first"]:
                        window["first"] = sent_at
                    if spans is not None:
                        spans.inject(
                            "%s-conn-%d" % (app, index),
                            name="%s-%d.%d" % (app, index, i),
                            arrival_cycles=sent_at,
                        )
                    host.send(socks[index], request)
                    got = yield from host.recv_exactly(
                        socks[index], rlen, max_polls=_MAX_STALL_POLLS,
                    )
                    if got != reply:
                        raise ReproError(
                            "connection %d: bad reply %r" % (index, got)
                        )
                    now = clock.cycles
                    latencies.append(now - sent_at)
                    if spans is not None:
                        spans.complete_next(
                            "%s-conn-%d" % (app, index), now=now,
                        )
                    window["last"] = max(window["last"], now)
                    done += 1
                reply_bytes[0] += done * rlen
                return done
            return body

        if rate_rps is None and schedule is None:
            mode = "closed"
            for index in range(connections):
                sched.create_thread("load-conn-%d" % index,
                                    closed_client(index))
        else:
            mode = "open"
            pendings = [deque() for _ in range(connections)]

            def setup():
                for index in range(connections):
                    yield from host.connect_blocking(
                        socks[index], instance.ip, port,
                    )
                window["first"] = clock.cycles
                offsets = _arrival_offsets(rate_rps, n_requests, schedule,
                                           seed, clock)
                sched.create_thread("loadgen", loadgen(offsets))
                for index in range(connections):
                    sched.create_thread("reap-%d" % index, reaper(index))
                return connections

            sched.create_thread("load-setup", setup)
        for name, factory in background:
            # Background bodies run alongside the load (the autotuner's
            # policy loop, a fault-burst arm): they must self-terminate,
            # typically by polling ``served()`` up to ``n_requests``.
            sched.create_thread(name, factory({
                "instance": instance,
                "host": host,
                "clock": clock,
                "sched": sched,
                "served": lambda: served_of(server),
                "n_requests": n_requests,
            }))
        sched.run()
    if served_of(server) != n_requests:
        raise ReproError(
            "%s served %d of %d requests under load"
            % (app, served_of(server), n_requests)
        )
    return LoadResult(
        app, mechanism, mode, rate_rps, n_requests, len(latencies),
        latencies, window["first"], window["last"], reply_bytes[0],
        clock, cores, _core_stats(sched), sched.switches, tracer,
        schedule=schedule,
    )


def _run_sqlite_load(mechanism, *, rate_rps, n_requests, seed, cores,
                     connections, mpk_gate, trace, tracer, hub,
                     config=None, schedule=None, background=()):
    """Load against SQLite: a worker pool draining an arrival queue.

    ``connections`` is the worker-pool width here (there is no network);
    each INSERT commits its own journalled transaction.
    """
    instance = FlexOSInstance(
        build_image(config if config is not None
                    else config_for(mechanism, LOAD_ISOLATE["sqlite"],
                                    mpk_gate)),
        machine=Machine(), cores=cores,
    ).boot()
    clock = instance.clock
    sched = instance.sched
    workers = max(1, connections)
    latencies = []
    window = {"first": None, "last": 0.0}
    state = {"produced": 0, "done": False}
    queue = deque()
    waitq = WaitQueue("sqlite-load")
    tracer, scope = _tracer_scope(trace, tracer, clock, hub)
    spans = hub.spans if hub is not None else None
    if spans is not None:
        # The worker pool drains one shared queue, so all workers serve
        # one shared feed: a worker pops a row and enters the sqlite
        # library in the same slice, preserving FIFO claim order.
        spans.register_feed(
            "sqlite", "sqlite",
            threads=["db-worker-%d" % i for i in range(max(1, connections))],
        )
    with scope, instance.run():
        engine = SqliteApp.make_engine(instance)
        engine.execute("CREATE TABLE load (k, v)")

        def worker(index):
            def body():
                served = 0
                while True:
                    if queue:
                        row, due = queue.popleft()
                        engine.execute(
                            "INSERT INTO load (k, v) VALUES (%d, 'v%d')"
                            % (row, row)
                        )
                        now = clock.cycles
                        latencies.append(now - due)
                        if spans is not None:
                            spans.complete_next("sqlite", now=now)
                        window["last"] = max(window["last"], now)
                        served += 1
                        yield yield_()
                    elif state["done"]:
                        return served
                    else:
                        yield block(waitq)
            return body

        def producer():
            start = clock.cycles
            window["first"] = start
            if rate_rps is None and schedule is None:
                # Saturation: enqueue everything at once; the pool runs
                # back to back and the queue depth is the backlog.
                for row in range(n_requests):
                    queue.append((row, clock.cycles))
                    if spans is not None:
                        spans.inject("sqlite", name="insert-%d" % row,
                                     arrival_cycles=clock.cycles)
                state["done"] = True
                sched.wake_all(waitq)
                return n_requests
            offsets = _arrival_offsets(rate_rps, n_requests, schedule,
                                       seed, clock)
            for row, offset in enumerate(offsets):
                due = start + offset
                now = clock.cycles
                if due > now:
                    yield sleep(clock.cycles_to_ns(due - now))
                queue.append((row, due))
                if spans is not None:
                    spans.inject("sqlite", name="insert-%d" % row,
                                 arrival_cycles=due)
                sched.wake(waitq)
            state["done"] = True
            sched.wake_all(waitq)
            return n_requests

        sched.create_thread("load-producer", producer)
        for index in range(workers):
            sched.create_thread("db-worker-%d" % index, worker(index))
        for name, factory in background:
            sched.create_thread(name, factory({
                "instance": instance,
                "host": None,
                "clock": clock,
                "sched": sched,
                "served": lambda: len(latencies),
                "n_requests": n_requests,
            }))
        sched.run()
    if len(latencies) != n_requests:
        raise ReproError(
            "sqlite committed %d of %d inserts under load"
            % (len(latencies), n_requests)
        )
    mode = "closed" if rate_rps is None and schedule is None else "open"
    return LoadResult(
        "sqlite", mechanism, mode, rate_rps, n_requests, len(latencies),
        latencies, window["first"], window["last"], 0,
        clock, cores, _core_stats(sched), sched.switches, tracer,
        schedule=schedule,
    )


def run_load(app, mechanism, rate_rps=None, n_requests=96, seed=1,
             cores=2, connections=4, mpk_gate="full", trace=False,
             tracer=None, hub=None, config=None, schedule=None,
             background=()):
    """Run one load point; returns a :class:`LoadResult`.

    Args:
        app: one of :data:`LOAD_APPS`.
        mechanism: isolation mechanism (``none``/``intel-mpk``/...).
        rate_rps: offered arrival rate in requests per *virtual* second;
            ``None`` runs the closed-loop saturation probe instead.
        n_requests: total requests across all connections.
        seed: arrival-schedule seed (open loop only).
        cores: virtual core count for the SMP scheduler, or ``None`` to
            serve on the serial reference scheduler.
        connections: client connections (worker-pool width for sqlite).
        trace: record obs metrics (``sched.core.*``, queue depths) for
            the run; the tracer rides on :attr:`LoadResult.tracer`.
        hub: a :class:`~repro.obs.TelemetryHub` to feed during the run —
            a request span per injected request (claimed/completed by
            the harness, decomposed into queue/gate/app cycles and
            windowed by completion time), SLO burn rates, slow-request
            exemplars.  The hub's clock is bound to the instance clock
            at boot; read it back through ``hub.snapshot()`` /
            ``hub.tail_report()`` after the run.
        config: a full :class:`~repro.core.config.SafetyConfig` to boot
            instead of the ``config_for(mechanism, ...)`` default — the
            autotuner passes :func:`~repro.reconfig.driver
            .reconfig_config` layouts here so the booted instance is
            live-migratable.
        schedule: ``[(rate_rps, n_requests), ...]`` piecewise Poisson
            phases (one continuous arrival process with rate shifts);
            mutually exclusive with ``rate_rps``, and ``n_requests`` is
            then the sum of the phase counts.
        background: ``(name, factory)`` pairs; each ``factory(ctx)`` is
            called with a dict (``instance``, ``host``, ``clock``,
            ``sched``, ``served``, ``n_requests``) and must return a
            self-terminating thread body, scheduled alongside the load.
    """
    if app not in LOAD_APPS:
        raise ReproError(
            "unknown load app %r (have: %s)" % (app, ", ".join(LOAD_APPS))
        )
    if connections < 1:
        raise ReproError("need at least one connection")
    if schedule is not None:
        if rate_rps is not None:
            raise ReproError(
                "pass either rate_rps or schedule, not both")
        schedule = [(float(rate), int(n)) for rate, n in schedule]
        n_requests = sum(n for _, n in schedule)
    kwargs = dict(rate_rps=rate_rps, n_requests=n_requests, seed=seed,
                  cores=cores, connections=connections, mpk_gate=mpk_gate,
                  trace=trace, tracer=tracer, hub=hub, config=config,
                  schedule=schedule, background=background)
    if app == "sqlite":
        return _run_sqlite_load(mechanism, **kwargs)
    return _run_tcp_load(app, mechanism, **kwargs)


def measure_saturation(app, mechanism, n_requests=96, cores=2,
                       connections=4, mpk_gate="full"):
    """Closed-loop ceiling throughput, in requests per virtual second."""
    result = run_load(app, mechanism, rate_rps=None, n_requests=n_requests,
                      cores=cores, connections=connections,
                      mpk_gate=mpk_gate)
    return result.achieved_rps
