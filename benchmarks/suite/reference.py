"""The host's current speed, timed in a fresh interpreter.

Run by the suite between samples as ``python -m benchmarks.suite.reference``;
prints the seconds one fixed piece of interpreter work took.  The work
runs in its own process, so nothing the simulator does (its heap, its
garbage-collector settings) reaches it: it moves only with the host,
which on a shared machine drifts by minutes at a time.
"""

import time

#: Iterations of the loop (about 0.1 s on an undisturbed host).
ROUNDS = 320_000


def loop_s():
    """Seconds this process takes for object, attribute, dict, call and
    bytes traffic like the simulator's."""
    class Node:
        __slots__ = ("value",)

        def __init__(self):
            self.value = 0

        def bump(self):
            self.value += 1
            return self.value

    start = time.perf_counter()
    table = {}
    buffer = bytearray()
    total = 0
    for i in range(ROUNDS):
        node = table.get(i & 511)
        if node is None:
            node = table[i & 511] = Node()
        total += node.bump()
        buffer += b"ab"
        if len(buffer) > 2048:
            del buffer[:1024]
        total ^= hash((i, total & 0xffff))
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(loop_s()))
