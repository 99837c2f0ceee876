"""Run one benchmark stream in this fresh process.

Reads the pickled ``(config, traced)`` pair from standard input and writes
the pickled :class:`bench.Rep` to standard output; ``bench.measure`` starts
it once per stream and waits for it to exit.
"""

import pickle
import sys

import bench

cfg, traced = pickle.load(sys.stdin.buffer)
pickle.dump(bench.stream_once(cfg, traced), sys.stdout.buffer)
