"""Cover-quality probe: ``minimize_cover`` on every 4-variable map, once with
the greedy solver forced (``exact_threshold=3``) and once on the exact path,
priced by revopt's ``cover_cost`` at width 5. The results are exact and
depend only on the sources, so they are cached under a hash of revopt's
sources and this file: a checkout pays for the probe once.

The maps are split across WORKERS child processes, each running this file as

    python3 bench/probe.py LO HI

which prints the counts of ``_chunk(LO, HI)`` as JSON. Every child is waited
for, and killed first if the probe fails, so none outlives the probe.
"""
from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
VARS = 4
MAPS = 1 << (1 << VARS)
WORKERS = 2  # the probe runs outside any timed region; two processes halve it
TIMEOUT_S = 150


def _chunk(lo: int, hi: int) -> tuple[int, int, int, int, int]:
    """(maps where greedy is worse, greedy cost sum, exact cost sum, max gap, maps)."""
    sys.path.insert(0, str(SRC))
    from revopt import Kmap, minimize_cover
    from revopt.ctr import cover_cost

    worse = greedy_sum = exact_sum = gap_max = 0
    for cells in range(lo, hi):
        k = Kmap(VARS, cells)
        greedy = cover_cost(minimize_cover(k, exact_threshold=VARS - 1), VARS)
        exact = cover_cost(minimize_cover(k), VARS)
        worse += greedy > exact
        greedy_sum += greedy
        exact_sum += exact
        gap_max = max(gap_max, greedy - exact)
    return worse, greedy_sum, exact_sum, gap_max, hi - lo


def cover_quality(cache_dir: Path) -> dict[str, float]:
    """Probe metrics over all 65,536 maps, split across WORKERS processes."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "revopt").glob("*.py")) + [Path(__file__)]:
        digest.update(path.read_bytes())
    cached = cache_dir / f"probe-{digest.hexdigest()[:16]}.json"
    if cached.is_file():
        return json.loads(cached.read_text(encoding="utf-8"))
    bounds = [MAPS * i // WORKERS for i in range(WORKERS + 1)]
    parts = _run_children(list(zip(bounds[:-1], bounds[1:])))
    worse, greedy_sum, exact_sum, _, maps = (sum(col) for col in zip(*parts))
    metrics = {
        "ctr.greedy_worse_share": worse / maps,
        "ctr.greedy_cost_mean": greedy_sum / maps,
        "ctr.exact_cost_mean": exact_sum / maps,
        "ctr.greedy_gap_max": max(p[3] for p in parts),
    }
    cache_dir.mkdir(exist_ok=True)
    cached.write_text(json.dumps(metrics), encoding="utf-8")
    return metrics


def _run_children(ranges: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Counts of `_chunk` over each range, one child process per range."""
    children = []
    try:
        for lo, hi in ranges:
            children.append(subprocess.Popen(
                [sys.executable, __file__, str(lo), str(hi)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            ))
        parts = []
        for child in children:
            out, err = child.communicate(timeout=TIMEOUT_S)
            if child.returncode != 0:
                raise RuntimeError(f"probe child exited with {child.returncode}:\n{err[-4000:]}")
            parts.append(tuple(json.loads(out)))
        return parts
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()


if __name__ == "__main__":
    print(json.dumps(_chunk(int(sys.argv[1]), int(sys.argv[2]))))
