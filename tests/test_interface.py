"""The declared interface of every shipped micro-library, pinned.

A compartment's interface size is part of its isolation trade-off: each
declared entry point is a legal way in from another compartment.  This
test collects the entry points the ``repro`` package declares (the
functions that carry ``__flexos_library__``) and compares them with the
pinned set below, so growing or shrinking any library's interface shows
up as a diff here.  It does not read ``LIBRARY_REGISTRY``, which also
holds the probes that tests register.
"""

import importlib
import inspect
import pkgutil

import repro

DECLARED = {
    "iperf": ("account",),
    "lwip": (
        "lwip_alloc_probe", "lwip_probe", "ping", "pump", "tcp_accept",
        "tcp_close", "tcp_connect", "tcp_listen", "tcp_readable",
        "tcp_recv", "tcp_send", "transmit", "udp_recv", "udp_send",
    ),
    "newlib": ("free", "malloc", "memcpy", "send", "snprintf", "socket"),
    "nginx": ("handle",),
    "ramfs": (
        "create", "getattr", "lookup", "read", "readdir", "truncate",
        "unlink", "write",
    ),
    "redis": ("execute", "redis_alloc_probe", "redis_probe"),
    "sqlite": ("execute",),
    "ukalloc": ("malloc",),
    "ukintr": ("raise_irq",),
    "uksched": (
        "_account_yield", "_prepare_dispatch", "create_thread", "wake",
        "wake_all",
    ),
    "uktime": ("monotonic_ns", "uptime_seconds", "wall_clock_ns"),
    "vfscore": (
        "close", "exists", "fsync", "listdir", "lseek", "mkdir", "open",
        "read", "stat", "unlink", "write",
    ),
}


def declared_entry_points():
    """``{library: sorted entry names}`` over every ``repro`` module."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        members = []
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                members.extend(vars(obj).values())
            elif getattr(obj, "__module__", None) == module.__name__:
                members.append(obj)
        for obj in members:
            library = getattr(obj, "__flexos_library__", None)
            if library is not None:
                found.setdefault(library, set()).add(obj.__name__)
    return {library: tuple(sorted(names))
            for library, names in found.items()}


def test_declared_interface_is_pinned():
    assert declared_entry_points() == DECLARED
