"""Command-line interface.

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
from .generator import generate, nonsk_expansions, nonsk_weight
from .grammar import GrammarError, load_grammar
from .kernel import decompose, is_sk, lexically_grounded
from .parser import ParseError, parse, roundtrip
from .search import GenConfig, GenerationError, default_budget, format_derivation

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
    except OSError as exc:
        raise InputError(f"cannot read grammar: {exc}") from exc
    except (AvmSyntaxError, GrammarError) as exc:
        raise InputError(f"bad grammar: {exc}") from exc


def _load_goal(path: str, root: str, grammar):
    try:
        with open(path, encoding="utf-8") as handle:
            value = parse_value(handle.read())
    except OSError as exc:
        raise InputError(f"cannot read semantics: {exc}") from exc
    except AvmSyntaxError as exc:
        raise InputError(f"bad semantics: {exc}") from exc
    if isinstance(value, Avm) and get(value, ("cat",)) is not ABSENT:
        return value
    cat = root or grammar.start
    return Avm((("cat", Atom(cat)), ("sem", value)))


def _config(args) -> GenConfig:
    try:
        budget = default_budget() if args.budget is None else args.budget
        return GenConfig(step_budget=budget, trace=getattr(args, "trace", False))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _emit(args, payload: dict, lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _gen_report(args, result, label):
    surfaces = sorted(set(result.surfaces))
    payload = {
        "algorithm": label,
        "outputs": surfaces,
        "steps": result.steps_used,
        "budget_exhausted": result.exhausted_budget,
    }
    lines = [f"{label}: {len(surfaces)} output(s), {result.steps_used} step(s)"]
    lines += [f"  {s}" for s in surfaces]
    if args.derivations:
        derivs = sorted(format_derivation(d) for _, d, _ in result.outputs)
        payload["derivations"] = derivs
        lines += ["derivations:"] + ["  " + d.replace("\n", "\n  ") for d in derivs]
    partial = getattr(result, "partial_outputs", None)
    if partial is not None:
        flagged = sorted(
            (" ".join(t), list(f)) for t, _, _, f in partial
        )
        payload["partial_outputs"] = [
            {"surface": s, "failures": f} for s, f in flagged
        ]
        lines.append(f"flagged: {len(flagged)} output(s)")
        lines += [f"  {s}  [{', '.join(f)}]" for s, f in flagged]
    if result.exhausted_budget:
        lines.append("budget exhausted")
    if args.trace:
        payload["trace"] = list(result.trace_log)
        lines += ["trace:"] + [f"  {t}" for t in result.trace_log]
    return payload, lines


def cmd_check(args):
    grammar = _load_grammar(args.grammar)
    rows = [(r.id, r.sk_class, r.mother_cat,
             [r.daughter_cat(i) for i in range(len(r.daughters))])
            for r in grammar.rules]
    payload = {
        "start": grammar.start,
        "nonsk_paths": [".".join(("sem",) + p) for p in grammar.nonsk_paths],
        "rules": [
            {"id": i, "class": c, "mother": m, "daughters": d}
            for i, c, m, d in rows
        ],
        "lexicon": sorted({e.surface for e in grammar.lexicon}),
        "warnings": [],
    }
    lines = [f"start: {grammar.start}",
             "nonsk paths: " + (", ".join(payload["nonsk_paths"]) or "(none)")]
    for i, c, m, d in rows:
        lines.append(f"rule {i}: {c}  {m} -> {', '.join(d)}")
    lines.append(f"lexicon: {len(grammar.lexicon)} entries")
    if not grammar.nonsk_paths:
        payload["warnings"].append("no non-kernel paths declared")
        lines.append("warning: no non-kernel paths declared")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_generate(args):
    grammar = _load_grammar(args.grammar)
    goal = _load_goal(args.sem, args.root, grammar)
    cfg = _config(args)
    if args.algo == "skg":
        result = generate(grammar, goal, cfg)
        label = "skg"
    else:
        mode = UNIFY_LINK if args.link == "unify" else SUBSTRUCTURE_LINK
        result = generate_shdg(grammar, goal, mode, cfg)
        label = f"shdg/{args.link}"
    payload, lines = _gen_report(args, result, label)
    _emit(args, payload, lines)
    if result.exhausted_budget:
        return EXIT_BUDGET
    return EXIT_OK if result.outputs else EXIT_FAIL


def cmd_parse(args):
    grammar = _load_grammar(args.grammar)
    cfg = _config(args)
    result = parse(grammar, args.sentence, cfg, root_cat=args.root)
    sems = sorted(render(s) for s, _ in result.analyses if s is not ABSENT)
    payload = {
        "analyses": sems,
        "steps": result.steps_used,
        "budget_exhausted": result.exhausted_budget,
    }
    lines = [f"{len(result.analyses)} analysis/analyses"] + [f"  {s}" for s in sems]
    if args.derivations:
        derivs = sorted(format_derivation(d) for _, d in result.analyses)
        payload["derivations"] = derivs
        lines += ["derivations:"] + ["  " + d.replace("\n", "\n  ") for d in derivs]
    _emit(args, payload, lines)
    if result.exhausted_budget:
        return EXIT_BUDGET
    return EXIT_OK if result.analyses else EXIT_FAIL


def cmd_roundtrip(args):
    grammar = _load_grammar(args.grammar)
    goal = _load_goal(args.sem, args.root, grammar)
    report = roundtrip(grammar, goal, _config(args))
    payload = {
        "ok": report.ok,
        "reason": report.reason,
        "outputs": [
            {"surface": s, "coherent": c, "complete": k}
            for s, c, k in report.entries
        ],
    }
    lines = [f"roundtrip: {'pass' if report.ok else 'FAIL'} ({report.reason})"]
    for s, c, k in report.entries:
        marks = []
        if not c:
            marks.append("incoherent")
        if not k:
            marks.append("incomplete")
        lines.append(f"  {s}" + (f"  [{', '.join(marks)}]" if marks else ""))
    _emit(args, payload, lines)
    if report.reason == "budget-exhausted":
        return EXIT_BUDGET
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_compare(args):
    grammar = _load_grammar(args.grammar)
    goal = _load_goal(args.sem, args.root, grammar)
    cfg = _config(args)
    skg_result = generate(grammar, goal, cfg)
    mode = UNIFY_LINK if args.link == "unify" else SUBSTRUCTURE_LINK
    shdg_result = generate_shdg(grammar, goal, mode, cfg)
    skg_set = sorted(set(skg_result.surfaces))
    shdg_set = sorted(set(shdg_result.surfaces))
    agree = (skg_set == shdg_set
             and not skg_result.exhausted_budget
             and not shdg_result.exhausted_budget)
    payload = {
        "skg": {"outputs": skg_set, "steps": skg_result.steps_used,
                "budget_exhausted": skg_result.exhausted_budget},
        "shdg": {"outputs": shdg_set, "steps": shdg_result.steps_used,
                 "budget_exhausted": shdg_result.exhausted_budget,
                 "link": args.link},
        "agree": agree,
    }
    lines = [f"skg: {len(skg_set)} output(s), {skg_result.steps_used} step(s)"
             + (" [budget exhausted]" if skg_result.exhausted_budget else "")]
    lines += [f"  {s}" for s in skg_set]
    lines.append(f"shdg/{args.link}: {len(shdg_set)} output(s), "
                 f"{shdg_result.steps_used} step(s)"
                 + (" [budget exhausted]" if shdg_result.exhausted_budget else ""))
    lines += [f"  {s}" for s in shdg_set]
    lines.append("agree" if agree else "DISAGREE")
    _emit(args, payload, lines)
    if skg_result.exhausted_budget or shdg_result.exhausted_budget:
        return EXIT_BUDGET
    return EXIT_OK if agree else EXIT_FAIL


def cmd_analyze(args):
    grammar = _load_grammar(args.grammar)
    goal = _load_goal(args.sem, args.root, grammar)
    sem = get(goal, ("sem",))
    if sem is ABSENT:
        raise InputError("goal has no sem feature")
    sem = normalize(sem)
    kernelic = is_sk(sem, grammar)
    weight = nonsk_weight(sem, grammar)
    payload = {
        "is_sk": kernelic,
        "nonsk_weight": weight,
        "lexically_grounded": lexically_grounded(sem, grammar),
    }
    lines = [f"is_sk: {kernelic}",
             f"nonsk_weight: {weight}",
             f"lexically_grounded: {payload['lexically_grounded']}"]
    if isinstance(sem, Avm):
        try:
            dec = decompose(sem, grammar)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        payload["kernel"] = render(dec.kernel)
        payload["nonsk_items"] = [
            {"path": ".".join(("sem",) + p), "item": render(v)}
            for p, v in dec.nonsk_items
        ]
        lines.append(f"kernel: {payload['kernel']}")
        for entry in payload["nonsk_items"]:
            lines.append(f"  {entry['path']}: {entry['item']}")
    if not kernelic:
        expansions = nonsk_expansions(grammar, goal)
        payload["expansions"] = [
            {"rule": rule.id, "subgoals": [render(s) for s in subs]}
            for rule, subs in expansions
        ]
        lines.append(f"expansions: {len(expansions)}")
        for e in payload["expansions"]:
            lines.append(f"  rule {e['rule']}: " + " ; ".join(e["subgoals"]))
    _emit(args, payload, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = _ArgumentParser(
        prog="skg",
        description="Generation and parsing with feature-structure grammars.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, budget=True):
        p.add_argument("--grammar", required=True, help="grammar file")
        p.add_argument("--sem", required=True, help="goal semantics file")
        if budget:
            p.add_argument("--budget", type=int, default=None,
                           help="step budget (default: SKG_BUDGET or 10^6)")
        p.add_argument("--root", default=None, help="root category")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("check", help="load and validate a grammar")
    p.add_argument("--grammar", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("generate", help="generate strings from semantics")
    common(p)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--algo", choices=("skg", "shdg"), default="skg")
    p.add_argument("--link", choices=("unify", "substructure"), default="unify")
    p.add_argument("--derivations", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("parse", help="parse a sentence")
    p.add_argument("sentence", help="sentence to parse")
    p.add_argument("--grammar", required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--root", default=None)
    p.add_argument("--derivations", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("roundtrip", help="generate, then re-parse each output")
    common(p)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("compare", help="compare kernel-driven and baseline output")
    common(p)
    p.add_argument("--link", choices=("unify", "substructure"), default="unify")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("analyze", help="kernel analysis of a goal")
    common(p, budget=False)
    p.set_defaults(func=cmd_analyze)

    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InputError, GenerationError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
