"""Command-line interface.

Each ``cmd_*`` returns its JSON payload, its text lines and its exit
status; :func:`main` prints one of the first two and returns the third.
Exit codes: 0 success, 1 check/generation failure, 2 step budget
exhausted, 3 malformed input (command line, grammar, semantics, goal,
unknown token).
"""

from __future__ import annotations

import argparse
import json
import sys

from .avm import ABSENT, Atom, Avm, AvmSyntaxError, get, normalize, parse_value, render
from .baseline import SUBSTRUCTURE_LINK, UNIFY_LINK, generate_shdg
from .generator import generate, nonsk_expansions
from .grammar import GrammarError, load_grammar, unary_cycles
from .kernel import decompose, is_sk, lexically_grounded, nonsk_weight
from .parser import ParseError, parse, roundtrip
from .search import (GenConfig, GenerationError, check_goal, default_budget,
                     format_derivation)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BUDGET = 2
EXIT_INPUT = 3


class InputError(ValueError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _load_grammar(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return load_grammar(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read grammar: {exc}") from exc
    except (AvmSyntaxError, GrammarError) as exc:
        raise InputError(f"bad grammar: {exc}") from exc


def _load_goal(args):
    """The grammar and the goal; a goal without ``cat`` is a bare ``sem``."""
    grammar = _load_grammar(args.grammar)
    try:
        with open(args.sem, encoding="utf-8") as handle:
            value = parse_value(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read semantics: {exc}") from exc
    except AvmSyntaxError as exc:
        raise InputError(f"bad semantics: {exc}") from exc
    if isinstance(value, Avm) and get(value, ("cat",)) is not ABSENT:
        return grammar, value
    return grammar, Avm((("cat", Atom(args.root or grammar.start)), ("sem", value)))


def _config(args) -> GenConfig:
    try:
        budget = default_budget() if args.budget is None else args.budget
        return GenConfig(step_budget=budget, trace=getattr(args, "trace", False))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _status(exhausted, ok) -> int:
    return EXIT_BUDGET if exhausted else EXIT_OK if ok else EXIT_FAIL


def _outputs(label, result):
    """The report of one generator's outputs, shared by ``generate`` and ``compare``."""
    surfaces = sorted(set(result.surfaces))
    payload = {"outputs": surfaces, "steps": result.steps_used,
               "budget_exhausted": result.exhausted_budget}
    lines = [f"{label}: {len(surfaces)} output(s), {result.steps_used} step(s)"]
    return payload, lines + [f"  {s}" for s in surfaces]


def _derivations(payload, lines, derivations):
    derivs = sorted(format_derivation(d) for d in derivations)
    payload["derivations"] = derivs
    lines += ["derivations:"] + ["  " + d.replace("\n", "\n  ") for d in derivs]


def cmd_check(args):
    grammar = _load_grammar(args.grammar)
    rows = [(r.id, r.sk_class, r.mother_cat,
             [r.daughter_cat(i) for i in range(len(r.daughters))])
            for r in grammar.rules]
    paths = [".".join(("sem",) + p) for p in grammar.nonsk_paths]
    grown = {".".join(("sem",) + r.nonsk_path) for r in grammar.rules if r.nonsk_path}
    warnings = [] if paths else ["no non-kernel paths declared"]
    warnings += [f"no rule grows non-kernel path {p}" for p in paths if p not in grown]
    built = {e.cat for e in grammar.lexicon} | {r.mother_cat for r in grammar.rules}
    wanted = (grammar.start, *(d for *_, ds in rows for d in ds))
    unbuilt = dict.fromkeys(c for c in wanted if c not in built)
    warnings += [f"no entry or rule builds category {c}" for c in unbuilt]
    warnings += [f"unary rule cycle over {', '.join(cats)}: rule {', '.join(ids)}"
                 for cats, ids in unary_cycles(grammar.rules)]
    payload = {
        "start": grammar.start,
        "nonsk_paths": paths,
        "rules": [
            {"id": i, "class": c, "mother": m, "daughters": d}
            for i, c, m, d in rows
        ],
        "lexicon": sorted({e.surface for e in grammar.lexicon}),
        "warnings": warnings,
    }
    lines = [f"start: {grammar.start}",
             "nonsk paths: " + (", ".join(paths) or "(none)")]
    lines += [f"rule {i}: {c}  {m} -> {', '.join(d)}" for i, c, m, d in rows]
    lines.append(f"lexicon: {len(grammar.lexicon)} entries")
    return payload, lines + [f"warning: {w}" for w in warnings], EXIT_OK


def cmd_generate(args):
    grammar, goal = _load_goal(args)
    cfg = _config(args)
    if args.algo == "skg":
        label, result = "skg", generate(grammar, goal, cfg)
    else:
        label, result = f"shdg/{args.link}", generate_shdg(grammar, goal, args.link, cfg)
    payload, lines = _outputs(label, result)
    payload["algorithm"] = label
    if args.derivations:
        _derivations(payload, lines, (d for _, d, _ in result.outputs))
    if args.algo == "shdg":
        flagged = sorted((" ".join(t), list(f)) for t, _, _, f in result.partial_outputs)
        payload["partial_outputs"] = [{"surface": s, "failures": f} for s, f in flagged]
        lines.append(f"flagged: {len(flagged)} output(s)")
        lines += [f"  {s}  [{', '.join(f)}]" for s, f in flagged]
    if result.exhausted_budget:
        lines.append("budget exhausted")
    if args.trace:
        payload["trace"] = list(result.trace_log)
        lines += ["trace:"] + [f"  {t}" for t in result.trace_log]
    return payload, lines, _status(result.exhausted_budget, result.outputs)


def cmd_parse(args):
    grammar = _load_grammar(args.grammar)
    result = parse(grammar, args.sentence, _config(args), root_cat=args.root)
    sems = sorted(render(s) for s, _ in result.analyses if s is not ABSENT)
    payload = {
        "analyses": sems,
        "steps": result.steps_used,
        "budget_exhausted": result.exhausted_budget,
    }
    lines = [f"{len(result.analyses)} analysis/analyses"] + [f"  {s}" for s in sems]
    if args.derivations:
        _derivations(payload, lines, (d for _, d in result.analyses))
    return payload, lines, _status(result.exhausted_budget, result.analyses)


def cmd_roundtrip(args):
    grammar, goal = _load_goal(args)
    report = roundtrip(grammar, goal, _config(args))
    payload = {
        "ok": report.ok,
        "reason": report.reason,
        "outputs": [
            {"surface": s, "coherent": c, "complete": k}
            for s, c, k in report.entries
        ],
        "steps": report.generation.steps_used,
        "check_steps": report.check_steps,
    }
    lines = [f"roundtrip: {'pass' if report.ok else 'FAIL'} ({report.reason})"]
    for s, c, k in report.entries:
        marks = []
        if not c:
            marks.append("incoherent")
        if not k:
            marks.append("incomplete")
        lines.append(f"  {s}" + (f"  [{', '.join(marks)}]" if marks else ""))
    lines.append(f"check steps: {report.check_steps}")
    return payload, lines, _status(report.reason == "budget-exhausted", report.ok)


def cmd_compare(args):
    grammar, goal = _load_goal(args)
    cfg = _config(args)
    payload, lines = {}, []
    for key, label, result in (
            ("skg", "skg", generate(grammar, goal, cfg)),
            ("shdg", f"shdg/{args.link}", generate_shdg(grammar, goal, args.link, cfg))):
        payload[key], report = _outputs(label, result)
        if result.exhausted_budget:
            report[0] += " [budget exhausted]"
        lines += report
    payload["shdg"]["link"] = args.link
    exhausted = payload["skg"]["budget_exhausted"] or payload["shdg"]["budget_exhausted"]
    agree = payload["skg"]["outputs"] == payload["shdg"]["outputs"] and not exhausted
    payload["agree"] = agree
    return payload, lines + ["agree" if agree else "DISAGREE"], _status(exhausted, agree)


def cmd_analyze(args):
    grammar, goal = _load_goal(args)
    check_goal(goal, grammar)
    sem = normalize(get(goal, ("sem",)))
    payload = {
        "is_sk": is_sk(sem, grammar),
        "nonsk_weight": nonsk_weight(sem, grammar),
        "lexically_grounded": lexically_grounded(sem, grammar),
    }
    lines = [f"{k}: {payload[k]}" for k in ("is_sk", "nonsk_weight", "lexically_grounded")]
    if isinstance(sem, Avm):
        dec = decompose(sem, grammar)
        payload["kernel"] = render(dec.kernel)
        payload["nonsk_items"] = [
            {"path": ".".join(("sem",) + p), "item": render(v)}
            for p, v in dec.nonsk_items
        ]
        lines.append(f"kernel: {payload['kernel']}")
        lines += [f"  {e['path']}: {e['item']}" for e in payload["nonsk_items"]]
    if not payload["is_sk"]:
        payload["expansions"] = [
            {"rule": rule.id, "subgoals": [render(s) for s in subs]}
            for rule, subs in nonsk_expansions(grammar, goal)
        ]
        lines.append(f"expansions: {len(payload['expansions'])}")
        lines += [f"  rule {e['rule']}: " + " ; ".join(e["subgoals"])
                  for e in payload["expansions"]]
    return payload, lines, EXIT_OK


_FLAGS = {
    "sentence": dict(help="sentence to parse"),
    "--grammar": dict(required=True, help="grammar file"),
    "--sem": dict(required=True, help="goal semantics file"),
    "--budget": dict(type=int, default=None,
                     help="step budget (default: SKG_BUDGET or 10^6)"),
    "--root": dict(default=None, help="root category"),
    "--format": dict(choices=("text", "json"), default="text"),
    "--trace": dict(action="store_true"),
    "--algo": dict(choices=("skg", "shdg"), default="skg"),
    "--link": dict(choices=(UNIFY_LINK, SUBSTRUCTURE_LINK), default=UNIFY_LINK),
    "--derivations": dict(action="store_true"),
}

_GOAL = "--grammar --sem --budget --root --format"
_COMMANDS = (
    ("check", cmd_check, "load and validate a grammar", "--grammar --format"),
    ("generate", cmd_generate, "generate strings from semantics",
     _GOAL + " --trace --algo --link --derivations"),
    ("parse", cmd_parse, "parse a sentence",
     "sentence --grammar --budget --root --derivations --format"),
    ("roundtrip", cmd_roundtrip, "generate, then re-parse each output", _GOAL),
    ("compare", cmd_compare, "compare kernel-driven and baseline output",
     _GOAL + " --link"),
    ("analyze", cmd_analyze, "kernel analysis of a goal",
     "--grammar --sem --root --format"),
)


def build_parser() -> argparse.ArgumentParser:
    top = _ArgumentParser(
        prog="skg",
        description="Generation and parsing with feature-structure grammars.")
    sub = top.add_subparsers(dest="command", required=True)
    for name, func, summary, flags in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        payload, lines, status = args.func(args)
    except (InputError, GenerationError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
