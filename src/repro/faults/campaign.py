"""Reproducible fault-injection campaigns with containment scoring.

A campaign boots one FlexOS instance, generates a :class:`FaultPlan` from
``(seed, config)``, injects every planned fault through the real gate /
allocator / device machinery, and emits one structured
:class:`FaultRecord` per injection.  Replaying the same
:class:`CampaignConfig` yields byte-identical records
(:meth:`CampaignResult.to_text`), which is what lets the containment
scorecard compare backends on *exactly* the same fault load.

Outcome model per fault:

* **detected** — the fault surfaced as an exception (hardware protection
  fault, software OOM, transport loss noticed by the probe).
* **contained** — the fault did not let one compartment read or corrupt
  another's private data, and the instance kept serving afterwards.
* **leaked** — the injected access silently succeeded: the backend let a
  compartment read/tamper data it does not own (the ``none`` backend's
  fate for every cross-compartment fault).
* **recovered** — a supervision policy (retry/restart/degrade) turned the
  fault into a completed or gracefully-failed call.
"""

from __future__ import annotations

from repro.core.config import CompartmentSpec, SafetyConfig
from repro.core.toolchain.build import build_image
from repro.core.vm import FlexOSInstance, Machine
from repro.errors import (
    AllocationError,
    CompartmentFault,
    ConfigError,
    DegradedService,
    ProtectionFault,
    ReproError,
    TransientFault,
)
from repro.faults.injector import (
    CROSS_COMPARTMENT_KINDS,
    FaultInjector,
    FaultPlan,
)
from repro.kernel.lib import entrypoint, work
from repro.kernel.net.device import LinkedDevices

#: The libraries campaigns isolate, one compartment each: the TCP/IP
#: stack (the paper's canonical victim) and the Redis application.
CAMPAIGN_LIBRARIES = ("lwip", "redis")

#: Kinds a default campaign cycles through.  ``rpc-drop`` is excluded so
#: the same plan is meaningful on every backend (a dropped descriptor
#: has no analogue on a same-address-space gate).
DEFAULT_CAMPAIGN_KINDS = (
    "stray-read",
    "stray-write",
    "corrupt-return",
    "alloc-oom",
    "net-drop",
    "net-dup",
)

_SECRET_VALUE = "app-session-token"


# -- campaign probes ----------------------------------------------------------
# Defined at module import time so build_image collects them as legal
# entry points (the EPT RPC server validates against that set).

@entrypoint("lwip")
def lwip_probe(token=0):
    """A well-behaved entry into the lwip compartment."""
    work(64.0)
    return 2 * token + 1


@entrypoint("lwip")
def lwip_alloc_probe(heap, size=64):
    """An lwip entry that allocates from its compartment heap."""
    work(32.0)
    allocation = heap.malloc(size)
    allocation.free()
    return size


@entrypoint("redis")
def redis_probe(token=0):
    """A well-behaved entry into the redis compartment."""
    work(64.0)
    return 2 * token + 2


@entrypoint("redis")
def redis_alloc_probe(heap, size=64):
    """A redis entry that allocates from its compartment heap."""
    work(32.0)
    allocation = heap.malloc(size)
    allocation.free()
    return size


_PLAIN_PROBES = {"lwip": lwip_probe, "redis": redis_probe}
_ALLOC_PROBES = {"lwip": lwip_alloc_probe, "redis": redis_alloc_probe}


class CampaignConfig:
    """Everything a campaign is determined by.

    Two campaigns with equal configs produce byte-identical records; the
    scorecard varies only ``mechanism``/``mpk_gate`` so every backend
    faces the same fault plan.
    """

    def __init__(self, mechanism="intel-mpk", mpk_gate="full",
                 policy="propagate", seed=1, n_faults=40, kinds=None,
                 isolate=CAMPAIGN_LIBRARIES):
        self.mechanism = mechanism
        self.mpk_gate = mpk_gate
        self.policy = policy
        self.seed = seed
        self.n_faults = n_faults
        self.kinds = tuple(kinds) if kinds else DEFAULT_CAMPAIGN_KINDS
        self.isolate = tuple(isolate)

    @property
    def name(self):
        backend = self.mechanism
        if self.mechanism == "intel-mpk":
            backend = "mpk-%s" % self.mpk_gate
        return "%s/%s" % (backend, self.policy)

    def describe(self):
        return ("campaign %s seed=%s faults=%d kinds=%s isolate=%s"
                % (self.name, self.seed, self.n_faults,
                   ",".join(self.kinds), ",".join(self.isolate)))

    def __repr__(self):
        return "CampaignConfig(%s)" % self.describe()


class FaultRecord:
    """One injected fault and its scored outcome."""

    __slots__ = ("index", "kind", "dst", "detected", "contained", "leaked",
                 "recovered", "cycles", "detail")

    def __init__(self, index, kind, dst, detected=False, contained=False,
                 leaked=False, recovered=False, cycles=0.0, detail=""):
        self.index = index
        self.kind = kind
        self.dst = dst
        self.detected = detected
        self.contained = contained
        self.leaked = leaked
        self.recovered = recovered
        #: Virtual cycles the instance spent injecting, detecting and
        #: handling this fault (including the post-fault health probe).
        #: Deterministic per config, so it is safe in the stable text.
        self.cycles = cycles
        self.detail = detail

    @property
    def cross_compartment(self):
        return self.kind in CROSS_COMPARTMENT_KINDS

    def line(self):
        return ("%03d %-14s dst=%-4s detected=%d contained=%d leaked=%d "
                "recovered=%d cycles=%-7d %s"
                % (self.index, self.kind, self.dst, int(self.detected),
                   int(self.contained), int(self.leaked),
                   int(self.recovered), round(self.cycles), self.detail))

    def __repr__(self):
        return "FaultRecord(%s)" % self.line()


class CampaignResult:
    """All records of one campaign plus aggregate accounting."""

    def __init__(self, config):
        self.config = config
        self.records = []
        #: SupervisionEvents of the run, in (compartment, timestamp)
        #: order — a total order independent of gate interleaving, so
        #: the rendered text is byte-identical across repeated runs.
        self.supervision = []

    def add(self, record):
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def counters(self):
        injected = len(self.records)
        xcomp = [r for r in self.records if r.cross_compartment]
        return {
            "injected": injected,
            "detected": sum(r.detected for r in self.records),
            "contained": sum(r.contained for r in self.records),
            "leaked": sum(r.leaked for r in self.records),
            "recovered": sum(r.recovered for r in self.records),
            "xcomp_injected": len(xcomp),
            "xcomp_contained": sum(r.contained for r in xcomp),
            "xcomp_leaked": sum(r.leaked for r in xcomp),
        }

    def mean_cycles_per_fault(self):
        """Average virtual cycles spent per injected fault."""
        if not self.records:
            return 0.0
        return sum(r.cycles for r in self.records) / len(self.records)

    def containment_rate(self):
        """Fraction of cross-compartment faults that stayed contained."""
        counts = self.counters()
        if not counts["xcomp_injected"]:
            return 1.0
        return counts["xcomp_contained"] / counts["xcomp_injected"]

    def to_text(self):
        """Stable, byte-identical-per-config serialization."""
        lines = [self.config.describe()]
        lines += [record.line() for record in self.records]
        if self.supervision:
            lines.append("supervision:")
            lines += ["  " + event.line() for event in self.supervision]
        counts = self.counters()
        lines.append(
            "totals injected=%(injected)d detected=%(detected)d "
            "contained=%(contained)d leaked=%(leaked)d "
            "recovered=%(recovered)d" % counts
        )
        lines.append(
            "cross-compartment injected=%(xcomp_injected)d "
            "contained=%(xcomp_contained)d leaked=%(xcomp_leaked)d" % counts
        )
        return "\n".join(lines)

    def summary_line(self):
        counts = self.counters()
        return ("%-16s injected=%3d detected=%3d contained=%3d leaked=%3d "
                "recovered=%3d containment=%5.1f%%"
                % (self.config.name, counts["injected"], counts["detected"],
                   counts["contained"], counts["leaked"],
                   counts["recovered"], 100.0 * self.containment_rate()))

    def __repr__(self):
        return "CampaignResult(%s, %d records)" % (
            self.config.name, len(self.records),
        )


# -- campaign execution --------------------------------------------------------

def build_campaign_config(config):
    """The SafetyConfig a campaign boots: one compartment per library."""
    specs = [CompartmentSpec("comp1", mechanism=config.mechanism,
                             default=True)]
    assignment = {}
    for i, library in enumerate(config.isolate):
        name = "comp%d" % (i + 2)
        specs.append(CompartmentSpec(name, mechanism=config.mechanism))
        assignment[library] = name
    return SafetyConfig(specs, assignment, sharing="dss",
                        mpk_gate=config.mpk_gate)


def boot_campaign_instance(config):
    """Boot an instance + device link for one campaign; returns both."""
    machine = Machine()
    link = LinkedDevices(machine.costs)
    instance = FlexOSInstance(
        build_image(build_campaign_config(config)), machine=machine,
        net_device=link.a,
    ).boot()
    return instance, link


def _prepare_injector(instance, config):
    """Attach an injector and point it at per-compartment victims."""
    injector = instance.attach_injector(FaultInjector())
    # The stray-access victim is the *default* compartment's private
    # data: a compromised isolated library reaching for application state.
    app_secret = instance.private_object("app", "app_secret",
                                         value=_SECRET_VALUE)
    for library in config.isolate:
        comp = instance.image.compartment_of(library)
        injector.victims[comp.index] = app_secret
        # The Iago return value points into the callee's own private data.
        injector.return_victims[comp.index] = instance.private_object(
            library, "%s_internal_state" % library,
            value="%s-private" % library,
        )
    return injector, app_secret


def _clean_probe(instance, library):
    """Verify the instance still serves well-formed calls."""
    try:
        return _PLAIN_PROBES[library](token=7) == (
            15 if library == "lwip" else 16
        )
    except ReproError:
        return False


def _library_of(instance, comp_index):
    for library in CAMPAIGN_LIBRARIES:
        if instance.image.compartment_of(library).index == comp_index:
            return library
    raise ConfigError("compartment %d hosts no campaign library"
                      % comp_index)


def _execute_gate_fault(instance, injector, spec, index):
    """Inject one gate-site fault and score its outcome."""
    library = _library_of(instance, spec.dst)
    record = FaultRecord(index, spec.kind, spec.dst)
    injector.arm(spec)
    events_before = len(injector.events)
    heap = instance.memmgr.heap_of(spec.dst)
    probe = (_ALLOC_PROBES[library] if spec.kind == "alloc-oom"
             else _PLAIN_PROBES[library])
    args = (heap,) if spec.kind == "alloc-oom" else ()
    try:
        value = probe(*args)
    except ProtectionFault as fault:
        record.detected = True
        record.detail = "caught %s at %r" % (
            type(fault).__name__, fault.symbol,
        )
    except AllocationError:
        record.detected = True
        record.detail = "caught AllocationError"
    except DegradedService as fault:
        record.detected = True
        record.recovered = True
        record.detail = "degraded (%s)" % type(fault.cause).__name__
    except CompartmentFault as fault:
        record.detected = True
        record.detail = "supervised %s" % type(fault.cause).__name__
    except TransientFault:
        record.detected = True
        record.detail = "caught TransientFault"
    else:
        record.detail = _score_completed_call(
            instance, injector, spec, record, value, events_before,
        )
    finally:
        injector.disarm()
        heap.fail_next(0)
    _finalize_record(instance, injector, library, record)
    return record


def _score_completed_call(instance, injector, spec, record, value,
                          events_before):
    """The probe returned: decide whether that means leak or recovery."""
    fired = len(injector.events) > events_before
    if not fired:
        return "spec did not fire"
    event = injector.events[-1]
    if spec.kind == "corrupt-return":
        # The caller now consumes the Iago reply with its own authority.
        try:
            leaked_value = value.read(instance.ctx)
        except ProtectionFault:
            record.detected = True
            return "corrupt return caught at caller dereference"
        except AttributeError:
            return "return value not corrupted"
        record.leaked = True
        return "caller read callee-private %r" % leaked_value
    if event.leaked:
        record.leaked = True
        return "%s silently succeeded" % spec.kind
    # The injected fault fired yet the call completed: a supervision
    # policy (retry/restart) absorbed it.
    record.detected = True
    record.recovered = True
    return "call replayed to completion"


def _finalize_record(instance, injector, library, record):
    """Containment = no leak + the instance still answers cleanly."""
    comp_index = instance.image.compartment_of(library).index
    app_secret = injector.victims.get(comp_index)
    if app_secret is not None \
            and app_secret.peek() != _SECRET_VALUE:
        record.leaked = True
        record.detail += "; app_secret tampered"
        app_secret._value = _SECRET_VALUE  # restore for the next fault
    record.contained = (not record.leaked) and _clean_probe(instance,
                                                            library)


def _execute_net_fault(instance, link, injector, spec, index):
    """Inject one link-level fault and score detection/recovery.

    The transmit side is the instance's own device (its driver lives in
    the lwip compartment, so the call still crosses the real gate); the
    fault is armed on the receiving peer.
    """
    record = FaultRecord(index, spec.kind, None)
    device, peer = link.a, link.b
    injector.inject_net(peer, spec.kind)
    frame = b"\x55" * 64
    rx_before = peer.rx_frames
    device.transmit(frame)
    delivered = peer.rx_frames - rx_before
    if spec.kind == "net-drop":
        if delivered == 0:
            # The missing frame is what the retransmission timer sees.
            record.detected = True
            device.transmit(frame)  # replay, as TCP would
            record.recovered = peer.rx_frames - rx_before == 1
            record.detail = "frame lost; retransmitted"
        else:
            record.detail = "drop did not fire"
    else:  # net-dup
        if delivered == 2:
            record.detected = True
            # The duplicate is discarded by sequence-number checks.
            peer.poll()
            record.recovered = True
            record.detail = "duplicate delivered; discarded by receiver"
        else:
            record.detail = "duplication did not fire"
    while peer.has_rx:
        peer.poll()
    record.contained = True  # link faults never cross protection domains
    return record


def run_campaign(config):
    """Run one campaign; returns a :class:`CampaignResult`."""
    instance, link = boot_campaign_instance(config)
    instance.supervisor.set_default_policy(config.policy)
    injector, _ = _prepare_injector(instance, config)
    targets = tuple(sorted(
        instance.image.compartment_of(lib).index for lib in config.isolate
    ))
    plan = FaultPlan(config.seed, config.n_faults, kinds=config.kinds,
                     targets=targets)
    result = CampaignResult(config)
    with instance.run():
        for index, spec in enumerate(plan):
            before = instance.clock.cycles
            if spec.kind in ("net-drop", "net-dup"):
                record = _execute_net_fault(instance, link, injector,
                                            spec, index)
            else:
                record = _execute_gate_fault(instance, injector, spec,
                                             index)
            record.cycles = instance.clock.cycles - before
            result.add(record)
    result.supervision = instance.supervisor.events_sorted()
    return result
