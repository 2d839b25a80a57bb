"""The machine's current speed, from a fixed task timed in the benchmark process.

On a shared virtual machine the speed of a CPU drifts by tens of percent over
minutes with other tenants' load, and the process's CPU time drifts with its
wall time. Timing this task just before and just after each run of the
command gives the speed that run saw, and the benchmark scales the run's
times to a nominal speed. The task does the kinds of work the program does:
regular-expression tokenising, set overlap, JSON encoding and decoding,
dictionary counting, sorting and resampling. Its inputs are fixed: they
depend on neither the workload nor the program, so a change to the program
cannot change the scale.
"""

from __future__ import annotations

import json
import random
import re
import time

# Seconds the task takes at nominal speed; about its median on a 2-vCPU VM.
NOMINAL_S = 0.1

_TOKEN = re.compile(r"[a-z]+")


class Reference:
    def __init__(self):
        rng = random.Random(7)
        words = ["".join(rng.choice("abcdefghijklmnop") for _ in range(rng.randint(2, 9))) for _ in range(3000)]
        self.texts = [" ".join(rng.choice(words) for _ in range(rng.randint(40, 200))) + "." for _ in range(400)]

    def seconds(self) -> float:
        """Wall time of one pass of the task."""
        start = time.perf_counter()
        sets = [frozenset(_TOKEN.findall(text)) for text in self.texts]
        overlap = 0.0
        for i, a in enumerate(sets):
            for b in sets[i % 7 :: 23]:
                overlap += len(a & b) / (len(b) or 1)
        decoded = json.loads(json.dumps({"texts": self.texts, "sizes": [len(s) for s in sets]}))
        counts: dict[str, int] = {}
        for text in decoded["texts"]:
            for word in text.split():
                counts[word] = counts.get(word, 0) + 1
        rng = random.Random(3)
        values = sorted(rng.random() for _ in range(20000))
        sum(values[rng.randrange(len(values))] for _ in range(60000))
        return time.perf_counter() - start
