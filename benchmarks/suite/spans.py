"""Wall-clock spans around calls into each simulator layer.

The traced child of the suite calls :func:`install`, which replaces the
layer-boundary functions listed in :data:`BOUNDARIES` with timing
wrappers, from outside the simulator and for that process only.  A
span is (name, layer, start, end, parent, root); a layer's self time is
the duration of its spans minus the part their child spans cover, so
the self times of all layers partition the root span (the timed
``run_load`` call) exactly.

Rules that decide where time lands:

* Entry points (functions decorated with ``repro.kernel.lib.entrypoint``)
  are re-decorated around their ``__wrapped_impl__``, so the callee's
  span nests *inside* the router and gate spans of the call; the router
  and gates keep only their own time.
* Spans opened under an ``apps.host`` span are charged to ``apps.host``:
  the client machine runs the same network-stack code, and
  ``kernel.net`` stays server-side only.
* Thread bodies given to ``Scheduler.create_thread`` are wrapped so that
  every resume of the thread is a span (and the root of the spans it
  causes), charged to the layer of the module its generator runs in.
  ``kernel.sched`` self time is then the dispatch loop alone.
* A layer's ``calls`` count entries into it: spans whose parent is in
  another layer.

Spans are recorded only while the root span is open.  Aggregates cover
every span; the first :data:`KEEP_SPANS` are also kept for the Chrome
trace-event file.
"""

import functools
import importlib
import inspect
import json
import time

ROOT_LAYER = "bench.load"
HOST_LAYER = "apps.host"

#: Spans kept for the Chrome trace file (aggregates cover all of them).
KEEP_SPANS = 20_000

#: Selects every public, non-generator function of an owner.
EVERY = None

#: (layer, module, class name or None for every class and function of
#: the module, method names or EVERY).  Entry points of a listed owner
#: are wrapped whatever the names say.
BOUNDARIES = (
    ("core.image", "repro.core.image", "Router", ("route",)),
    ("core.gates", "repro.core.gates", "Gate", ("call",)),
    ("core.gates", "repro.core.gates", "EptRpcGate", ("call",)),
    ("hw.mmu", "repro.hw.mmu", "MMU", ("check",)),
    ("hw.memory", "repro.hw.memory", "MemoryObject", ("read", "write")),
    ("hw.memory", "repro.hw.memory", "ByteBuffer",
     ("read_bytes", "write_bytes", "read_vec", "write_vec")),
    ("kernel.net", "repro.kernel.net.stack", "NetworkStack", EVERY),
    ("kernel.net", "repro.kernel.net.tcp", "TcpConnection", EVERY),
    ("kernel.net", "repro.kernel.net.device", "NetDevice", EVERY),
    ("kernel.net", "repro.kernel.net.socket", "Socket", EVERY),
    ("kernel.net", "repro.kernel.net.headers", None, EVERY),
    ("kernel.fs", "repro.kernel.fs.vfs", "Vfs", EVERY),
    ("kernel.fs", "repro.kernel.fs.ramfs", "RamFs", EVERY),
    ("kernel.allocators", "repro.kernel.allocators.base", "Allocator",
     ("malloc", "free")),
    ("kernel.allocators", "repro.kernel.memmgr", "MemoryManager", ()),
    ("kernel.libc", "repro.kernel.libc", "Libc", EVERY),
    ("kernel.sched", "repro.kernel.sched", "Scheduler", ("run",)),
    ("kernel.sched", "repro.kernel.smp", "SmpScheduler", ("run",)),
    ("kernel.time", "repro.kernel.uktime", "TimeSubsystem", EVERY),
    ("apps", "repro.apps.redis", "RedisServer", ()),
    ("apps", "repro.apps.nginx", "NginxServer", ()),
    ("apps", "repro.apps.sqlite", "SqliteEngine", ()),
    ("apps.host", "repro.apps.host", "HostEndpoint", EVERY),
    ("obs", "repro.obs.hub", "TelemetryHub", EVERY),
    ("obs", "repro.obs.spans", "SpanTracker", EVERY),
    ("obs", "repro.obs.timeseries", "WindowedTelemetry", EVERY),
    ("obs", "repro.obs.tracer", "Tracer", EVERY),
    ("obs", "repro.obs.metrics", "MetricsRegistry", EVERY),
)

#: Layer of a thread body, by the module its generator runs in.
MODULE_LAYERS = {module: layer for layer, module, _, _ in BOUNDARIES}

# Frame fields (frames are lists: the hot path indexes them).
_START, _CHILD, _LAYER, _STATS, _ID, _PARENT, _ROOT, _NAME = range(8)


class SpanRecorder:
    """Open spans as a stack, per-layer aggregates, and kept spans."""

    def __init__(self):
        self.spans = 0
        #: layer -> [self seconds, entries]
        self.layers = {}
        #: (id, name, layer, start, end, parent, root) of the first spans.
        self.kept = []
        #: HostEndpoint.try_recv calls: [attempted, returned data].
        self.polls = [0, 0]
        self.root_seconds = 0.0
        self._stack = []

    # -- spans ---------------------------------------------------------------
    def open(self, layer, name, new_root=False):
        """Open a span; None while no root span is open."""
        stack = self._stack
        if not stack:
            return None
        parent = stack[-1]
        if parent[_LAYER] == HOST_LAYER:
            layer = HOST_LAYER
        return self._push(layer, name, parent[_LAYER] != layer, parent[_ID],
                          None if new_root else parent[_ROOT])

    def _push(self, layer, name, entered, parent_id, root_id):
        """Open a frame; ``root_id`` None makes the span its own root."""
        stats = self.layers.get(layer)
        if stats is None:
            stats = self.layers[layer] = [0.0, 0]
        if entered:
            stats[1] += 1
        span_id = self.spans
        self.spans += 1
        frame = [0.0, 0.0, layer, stats, span_id, parent_id,
                 span_id if root_id is None else root_id, name]
        self._stack.append(frame)
        frame[_START] = time.perf_counter()
        return frame

    def close(self, frame):
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame[_START]
        frame[_STATS][0] += duration - frame[_CHILD]
        if stack:
            stack[-1][_CHILD] += duration
        else:
            self.root_seconds = duration
        if frame[_ID] < KEEP_SPANS:
            self.kept.append((frame[_ID], frame[_NAME], frame[_LAYER],
                              frame[_START], end, frame[_PARENT],
                              frame[_ROOT]))

    # -- wrappers ------------------------------------------------------------
    def wrap(self, func, layer, name):
        """``func`` inside a span of ``layer``."""
        open_span, close_span = self.open, self.close

        @functools.wraps(func)
        def timed(*args, **kwargs):
            frame = open_span(layer, name)
            if frame is None:
                return func(*args, **kwargs)
            try:
                return func(*args, **kwargs)
            finally:
                close_span(frame)
        return timed

    def root(self, func):
        """``func`` as the root span: spans are recorded while it runs."""
        name = func.__name__

        @functools.wraps(func)
        def timed(*args, **kwargs):
            frame = self._push(ROOT_LAYER, name, True, -1, None)
            try:
                return func(*args, **kwargs)
            finally:
                self.close(frame)
        return timed

    def resumable(self, body):
        """A thread body whose every resume is a span."""
        def start():
            generator = body() if callable(body) else body
            module = generator.gi_frame.f_globals.get("__name__", "")
            return self._resumes(generator,
                                 MODULE_LAYERS.get(module, ROOT_LAYER),
                                 generator.__qualname__)
        return start

    def _resumes(self, generator, layer, name):
        value = None
        while True:
            frame = self.open(layer, name, new_root=True)
            try:
                op = generator.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                if frame is not None:
                    self.close(frame)
            value = yield op

    # -- results -------------------------------------------------------------
    def summary(self, n_requests):
        """Per-layer metrics of the finished root span."""
        metrics = {}
        for layer, (self_seconds, entries) in sorted(self.layers.items()):
            metrics[layer + ".self_share"] = self_seconds / self.root_seconds
            metrics[layer + ".calls_per_req"] = entries / n_requests
        attempted, useful = self.polls
        if attempted:
            metrics[HOST_LAYER + ".useful_poll_ratio"] = useful / attempted
        return metrics

    def write_chrome_trace(self, path):
        """Write the kept spans as Chrome trace-event JSON."""
        kept = sorted(self.kept)  # by id: the root span, opened first
        origin = kept[0][3] if kept else 0.0
        events = [
            {"name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
             "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
             "args": {"id": span_id, "parent": parent, "root": root}}
            for span_id, name, layer, start, end, parent, root in kept
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"spans": self.spans,
                                     "kept": len(events)}}, handle)


def install(recorder):
    """Wrap every boundary in :data:`BOUNDARIES` (process-wide)."""
    from repro.kernel.lib import entrypoint

    for layer, module_name, class_name, names in BOUNDARIES:
        module = importlib.import_module(module_name)
        if class_name is None:
            owners = [module] + [
                value for value in vars(module).values()
                if inspect.isclass(value) and value.__module__ == module_name
            ]
        else:
            owners = [getattr(module, class_name)]
        for owner in owners:
            prefix = "" if owner is module else owner.__name__ + "."
            for attr, value in list(vars(owner).items()):
                wrapped = _wrapped(recorder, entrypoint, layer, module_name,
                                   prefix + attr, value, names)
                if wrapped is not None:
                    setattr(owner, attr, wrapped)
    _time_thread_bodies(recorder, entrypoint)
    _count_host_polls(recorder)


def _selected(name, func, names):
    attr = name.rpartition(".")[2]
    if names is EVERY:
        return not attr.startswith("_") \
            and not inspect.isgeneratorfunction(func)
    return attr in names


def _wrapped(recorder, entrypoint, layer, module_name, name, value, names):
    """The timed replacement for one attribute, or None to leave it."""
    if isinstance(value, (classmethod, staticmethod)):
        if _selected(name, value.__func__, names):
            return type(value)(recorder.wrap(value.__func__, layer, name))
        return None
    if not inspect.isfunction(value) or value.__module__ != module_name:
        return None
    impl = getattr(value, "__wrapped_impl__", None)
    if impl is not None:
        return entrypoint(value.__flexos_library__)(
            recorder.wrap(impl, layer, name))
    if _selected(name, value, names):
        return recorder.wrap(value, layer, name)
    return None


def _time_thread_bodies(recorder, entrypoint):
    from repro.kernel.sched import Scheduler

    create = Scheduler.create_thread.__wrapped_impl__

    @functools.wraps(create)
    def create_thread(self, name, body, compartment=0):
        return create(self, name, recorder.resumable(body), compartment)

    Scheduler.create_thread = entrypoint("uksched")(create_thread)


def _count_host_polls(recorder):
    from repro.apps.host import HostEndpoint

    try_recv = HostEndpoint.try_recv

    @functools.wraps(try_recv)
    def counted(self, sock, max_bytes):
        data = try_recv(self, sock, max_bytes)
        recorder.polls[0] += 1
        if data:
            recorder.polls[1] += 1
        return data

    HostEndpoint.try_recv = counted
