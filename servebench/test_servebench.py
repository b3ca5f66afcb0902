"""The benchmark's own tests: the oracle on hand-checked graphs, the
short mode end to end, the refusal to run without sources, and that no
process the benchmark starts outlives it.

    python3 -m pytest servebench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from oracle import GraphOracle  # noqa: E402


def _two_cliques() -> GraphOracle:
    """K4 on 0..3 and K4 on 4..7, joined by the bridge 3-4, plus a tail 7-8."""
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    edges += [(a, b) for a in range(4, 8) for b in range(a + 1, 8)]
    edges += [(3, 4), (7, 8)]
    return GraphOracle.from_edges(range(9), edges)


def test_peels_match_hand_values():
    oracle = _two_cliques()
    assert oracle.core == {**{n: 3 for n in range(8)}, 8: 1}
    assert oracle.truss[(0, 1)] == 4 and oracle.truss[(3, 4)] == 2
    assert oracle.community("truss", 4, [0]) == [0, 1, 2, 3]
    assert oracle.community("core", 3, [0, 5]) == list(range(8))
    assert oracle.community("core", 4, [0]) is None


def test_density_modularity_definition_2():
    oracle = _two_cliques()
    # C = {0,1,2,3}: l_C = 6, d_C = 3+3+3+4 = 13, |E| = 6+6+2 = 14
    expected = (2 * 6 - 13 * 13 / (2 * 14)) / (2 * 4)
    assert oracle.density_modularity([0, 1, 2, 3]) == pytest.approx(expected, rel=0, abs=1e-15)


def test_checks_reject_corrupted_answers():
    oracle = _two_cliques()
    score = oracle.density_modularity([0, 1, 2, 3])
    good = {"nodes": [0, 1, 2, 3], "score": score, "failed": False}
    assert oracle.check_dm_search(good, [0]) is None
    assert oracle.check_dm_search(dict(good, nodes=[1, 2, 3]), [0]) is not None
    assert oracle.check_dm_search(dict(good, nodes=[0, 1, 2, 3, 8]), [0]) is not None
    assert oracle.check_dm_search(dict(good, score=score + 1e-6), [0]) is not None
    kt = {"nodes": [0, 1, 2, 3], "score": 4.0, "failed": False}
    assert oracle.check_exact("truss", kt, [0], 4) is None
    assert oracle.check_exact("truss", dict(kt, nodes=[0, 1, 2, 3, 4]), [0], 4) is not None
    assert oracle.check_hightruss(kt, [0]) is None
    assert oracle.check_hightruss(dict(kt, score=3.0), [0]) is not None


def test_edge_toggle_gives_a_new_graph_state():
    oracle = _two_cliques()
    added = oracle.with_edge(0, 8, True)
    assert added.edges == oracle.edges + 1 and 8 not in oracle.adj[0]
    assert added.with_edge(0, 8, False).adj == oracle.adj


def test_short_mode_runs_every_workload_clean():
    root = HERE.parent
    done = subprocess.run(
        [sys.executable, "servebench/run.py", "--short"],
        cwd=root, capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    results = [line for line in done.stdout.splitlines() if line.split(" ", 1)[0] in
               ("dmcs-search", "index-serve", "epoch-churn")]
    assert len(results) == 6
    for line in results:
        result = json.loads(line.split(" ", 2)[2])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "servebench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", "dmcs-search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


_ORPHANING_SCRIPT = """
import subprocess, sys
from multiprocessing import resource_tracker
sys.path.insert(0, sys.argv[1])
from server import _alive, adopt_orphans, stop_children
adopt_orphans()
resource_tracker.ensure_running()
tracker = resource_tracker._resource_tracker._pid
# a child that starts a sleeper and exits at once: the sleeper is orphaned
child = subprocess.run(
    [sys.executable, "-c",
     "import subprocess, sys; print(subprocess.Popen([sys.executable, '-c', "
     "'import time; time.sleep(60)'], stdout=subprocess.DEVNULL, "
     "stderr=subprocess.DEVNULL).pid)"],
    capture_output=True, text=True, check=True,
)
sleeper = int(child.stdout)
killed = stop_children(grace_s=1.0)
print(killed == [sleeper], _alive(sleeper), _alive(tracker))
"""


def test_stop_children_stops_tracker_and_reaps_orphans():
    done = subprocess.run(
        [sys.executable, "-c", _ORPHANING_SCRIPT, str(HERE)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    # the orphan was re-parented here and killed; the tracker ended on its own
    assert done.stdout.split() == ["True", "False", "False"]
