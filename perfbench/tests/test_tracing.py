"""The tracer: wrappers come off cleanly, spans nest, figures add up.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import skg  # noqa: E402
import skg.cli  # noqa: E402
from tracing import NAMES, TARGETS, Tracer  # noqa: E402
from workloads import NP_FIXTURE, S_FIXTURE, goal_value  # noqa: E402

GRAMMAR = skg.load_grammar((ROOT / "grammars" / "paper.skg").read_text())


def _bindings():
    """Every (owner, attribute) -> object the tracer may replace."""
    out = {}
    for _, module_name, attribute in TARGETS:
        if attribute.startswith("Env."):
            out[("Env", attribute)] = skg.Env.__dict__[attribute[4:]]
            continue
        for name, module in sys.modules.items():
            if (name == "skg" or name.startswith("skg.")) and attribute in module.__dict__:
                out[(name, attribute)] = module.__dict__[attribute]
    return out


def test_uninstall_restores_every_original():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    assert skg.generate is not before[("skg", "generate")]
    assert skg.generator.generate is not before[("skg.generator", "generate")]
    tracer.uninstall()
    assert _bindings() == before


def test_spans_nest_and_figures_add_up():
    cfg = skg.GenConfig(step_budget=10 ** 6)
    goal = goal_value(skg, S_FIXTURE)
    plain = skg.roundtrip(GRAMMAR, goal, cfg)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.current_op = 0
        traced = skg.roundtrip(GRAMMAR, goal, cfg)
    finally:
        tracer.uninstall()
    assert traced.entries == plain.entries
    assert traced.generation.surfaces == plain.generation.surfaces

    names = [NAMES[i] for i in tracer.name]
    for i, name in enumerate(names):
        p = tracer.parent[i]
        assert tracer.start[i] <= tracer.end[i]
        if p >= 0:
            assert tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]
            # self-recursion is folded into the outermost span
            assert not (name == names[p] and name.startswith("avm."))
    assert names.count("generator.generate") == 1
    assert names.count("parser.parse") == len(plain.entries)

    tracer.fold()
    m = {k: v for k, (v, _) in tracer.metrics(rounds=1).items()}
    assert m["generator.calls"] == 1
    assert m["parser.parse_calls"] == len(plain.entries)
    assert m["parser.left_corner_table_calls"] == len(plain.entries)
    assert m["generator.derivations"] == len(plain.generation.outputs)
    assert m["generator.surfaces"] == 3
    assert m["search.steps"] >= plain.generation.steps_used
    for layer in ("avm", "kernel", "generator", "parser"):
        assert 0 < m[f"{layer}.self_s"] <= m[f"{layer}.total_s"] + 1e-9
    assert m["generator.self_s"] < m["generator.generate_s"]


def test_exhausted_budget_leaves_wrappers_in_place():
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = skg.Env.__dict__["unify"]
        result = skg.generate_shdg(GRAMMAR, goal_value(skg, NP_FIXTURE),
                                   skg.UNIFY_LINK, skg.GenConfig(step_budget=500))
        assert result.exhausted_budget
        assert skg.Env.__dict__["unify"] is wrapped
        assert tracer.stack == [-1]
    finally:
        tracer.uninstall()


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roundtrip-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
