"""Command-line front end: construct, transform, check, search, and
verify-table workflows with reproducible file I/O.

stdout carries machine-readable JSON lines (or human tables under
``--pretty``); stderr carries diagnostics.  Exit codes: 0 success (and
"no arrow" for ``check``), 1 arrow holds / verification FAIL, 2 usage or
parse error, 3 search budget exhausted before optimality was proved.

Every search-backed command attaches a run manifest (command line,
input digests, library version, budgets, wall time, result digest) to
its result object.  Re-running a search that finishes, or that stops on
its node budget, with identical inputs reproduces the output bit for bit
apart from the wall-clock fields; a search stopped by its time budget
depends on the wall clock.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time

from . import __version__
from .cancellative_turan import Pattern, ex3, is_cancellative, max_cancellative
from .constructions import (
    AsymptoticBounds,
    TildeFamily,
    mtilde_formula,
    partite_family,
    partite_family_size,
    special6,
    t_count,
    tilde_from_json,
    tilde_to_full,
    tilde_to_json_obj,
    turan_graph,
)
from .search import (
    DEFAULT_BUDGET_NODES,
    DEFAULT_BUDGET_SECS,
    ArrowQuery,
    crosscheck_mtilde,
    max_tilde,
    run_query,
)
from .setcore import (
    FamilyError,
    SetFamily,
    down_closure,
    elements_of,
    family_from_json,
    family_from_text,
    family_to_json_obj,
    family_to_text,
    is_downset,
    max_trace_over_ksets,
    parse_json,
)
from .transforms import (
    aux_triples_linear,
    downset_compress,
    partition_classes,
    symmetrize,
    symmetrize_if_profitable,
)


def _emit(obj: dict, pretty: bool) -> None:
    if pretty:
        for key, val in obj.items():
            print(f"{key}: {json.dumps(val) if isinstance(val, (dict, list)) else val}")
    else:
        print(json.dumps(obj, separators=(",", ":"), sort_keys=True))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _manifest(
    argv, inputs: dict[str, str], wall_ms: float, result_obj, *, budget_nodes, budget_secs
) -> dict:
    # digest the stable result content; wall-clock readings stay out of it
    stable = {k: v for k, v in result_obj.items() if k not in ("elapsed_ms", "manifest")}
    body = json.dumps(stable, separators=(",", ":"), sort_keys=True).encode()
    return {
        "command": " ".join(argv),
        "inputs": inputs,
        "version": __version__,
        "budgets": {"nodes": budget_nodes, "secs": budget_secs},
        "wall_ms": round(wall_ms, 3),
        "result_digest": _sha256(body),
    }


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FamilyError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FamilyError(f"{path} is not UTF-8 text: {exc}") from exc


def _write_text(path: str, data: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(data)
    except OSError as exc:
        raise FamilyError(f"cannot write {path}: {exc}") from exc


def _load_family(path: str) -> SetFamily:
    """Family file in either format; pair/triple JSON is lifted to the
    corresponding full family (empty set and singletons adjoined)."""
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        if '"g2"' in text or '"g3"' in text:
            return tilde_to_full(tilde_from_json(text))
        return family_from_json(text)
    return family_from_text(text)


def _write_family(fam: SetFamily, path: str) -> None:
    if path.endswith(".json"):
        data = json.dumps(family_to_json_obj(fam), separators=(",", ":")) + "\n"
    else:
        data = family_to_text(fam)
    _write_text(path, data)


def _budget_kwargs(ns, nodes=DEFAULT_BUDGET_NODES, secs=DEFAULT_BUDGET_SECS) -> dict:
    """Search budgets: a budget flag that was given overrides the base."""
    return {
        "budget_nodes": nodes if ns.budget_nodes is None else ns.budget_nodes,
        "budget_secs": secs if ns.budget_secs is None else ns.budget_secs,
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_construct(ns, argv) -> int:
    kind = ns.kind
    tilde: TildeFamily | None = None
    fam: SetFamily | None = None
    formula = None
    if kind == "partite":
        if ns.n is None or ns.l is None:
            raise FamilyError("construct partite needs --n and --l")
        fam = partite_family(ns.n, ns.l)
        formula = partite_family_size(ns.n, ns.l)
    elif kind == "turan":
        if ns.n is None or ns.r is None:
            raise FamilyError("construct turan needs --r and --n")
        fam = turan_graph(ns.r, ns.n)
        formula = t_count(ns.r, ns.n)
    elif kind == "special6":
        tilde = special6()
        formula = 16
    elif kind in ("downclosure", "downclosure-of-file"):
        kind = "downclosure"
        if not ns.input:
            raise FamilyError("construct downclosure needs --input FILE")
        fam = down_closure(_load_family(ns.input))
    else:  # pragma: no cover - argparse restricts choices
        raise FamilyError(f"unknown construct kind {kind!r}")

    if tilde is not None:
        obj = {"kind": kind, "size": len(tilde), "formula": formula}
        payload = json.dumps(tilde_to_json_obj(tilde), separators=(",", ":")) + "\n"
        if ns.out:
            _write_text(ns.out, payload)
            obj["out"] = ns.out
        else:
            obj["family"] = tilde_to_json_obj(tilde)
    else:
        obj = {"kind": kind, "size": len(fam)}
        if formula is not None:
            obj["formula"] = formula
        if ns.out:
            _write_family(fam, ns.out)
            obj["out"] = ns.out
        else:
            obj["family"] = family_to_json_obj(fam)
    _emit(obj, ns.pretty)
    return 0


def _cmd_check(ns, argv) -> int:
    if ns.b < 1:
        raise FamilyError(f"trace target b={ns.b} must be >= 1")
    fam = _load_family(ns.family)
    res = max_trace_over_ksets(fam, ns.a)
    arrow = res.max >= ns.b
    _emit(
        {
            "family": ns.family,
            "size": len(fam),
            "a": ns.a,
            "b": ns.b,
            "max_trace": res.max,
            "witness": list(elements_of(res.witness)),
            "arrow": arrow,
        },
        ns.pretty,
    )
    return 1 if arrow else 0


def _emit_search(ns, argv, run, budget_kw: dict, extra: dict, inputs=None) -> int:
    """Time ``run()``, print its result with the command's own keys and
    the manifest, and exit 0 when the optimum is proved, else 3."""
    t0 = time.perf_counter()
    res = run()
    wall = (time.perf_counter() - t0) * 1000.0
    obj = res.to_json_obj()
    obj.update(extra)
    obj["manifest"] = _manifest(argv, inputs or {}, wall, obj, **budget_kw)
    _emit(obj, ns.pretty)
    return 0 if res.proved_optimal else 3


def _cmd_search(ns, argv) -> int:
    mode = ns.mode or "downset"
    budget_kw = _budget_kwargs(ns)
    inputs = None
    if ns.query:
        text = _read_text(ns.query)
        q = ArrowQuery.from_json_obj(parse_json(text, f"query JSON in {ns.query}"))
        budget_kw = _budget_kwargs(ns, q.budget_nodes, q.budget_secs)
        q = dataclasses.replace(q, **budget_kw)
        inputs = {ns.query: _sha256(text.encode())}
    elif mode in ("tilde", "tilde-complete"):
        if ns.n is None or ns.c is None:
            raise FamilyError("tilde search needs --n and --c")
        q = ArrowQuery.tilde(ns.n, ns.c, **budget_kw)
    elif mode == "antichain":
        if ns.n is None or ns.k is None:
            raise FamilyError("antichain search needs --n and --k")
        q = ArrowQuery.antichain(ns.n, ns.k, **budget_kw)
    else:
        if ns.n is None or ns.a is None or ns.b is None:
            raise FamilyError("down-set search needs --n, --a and --b")
        q = ArrowQuery.downset(ns.n, ns.a, ns.b, **budget_kw)
    run = lambda: run_query(q)
    return _emit_search(ns, argv, run, budget_kw, {"query": q.to_json_obj()}, inputs)


def _cmd_verify_table(ns, argv) -> int:
    try:
        rows = [int(tok) for tok in ns.rows.split(",") if tok]
    except ValueError as exc:
        raise FamilyError(f"--rows must be comma-separated integers, got {ns.rows!r}") from exc
    allowed = {1, 2, 3, 5, 6, 7, 8}
    bad = [c for c in rows if c not in allowed]
    if bad:
        raise FamilyError(f"rows must be within {sorted(allowed)}, got {bad}")
    budget_kw = _budget_kwargs(ns)
    t0 = time.perf_counter()
    any_fail = False
    lines = []
    for c in rows:
        for n in range(ns.n_min, ns.n_max + 1):
            res = max_tilde(ArrowQuery.tilde(n, c, **budget_kw))
            searched = res.optimum + 1
            entry = {"c": c, "n": n, "searched": searched, "proved": res.proved_optimal}
            formula = mtilde_formula(c, n)
            if isinstance(formula, AsymptoticBounds):
                entry["formula"] = None
                entry["status"] = "no-exact-formula"
            elif c == 8 and n < 25:
                entry["formula"] = formula
                entry["status"] = "formula-out-of-range"
            elif not res.proved_optimal:
                entry["formula"] = formula
                entry["status"] = "UNPROVED"
                any_fail = True
            else:
                entry["formula"] = formula
                entry["status"] = "PASS" if formula == searched else "FAIL"
                any_fail = any_fail or entry["status"] == "FAIL"
            lines.append(entry)
    wall = (time.perf_counter() - t0) * 1000.0
    if ns.pretty:
        print(f"{'c':>3} {'n':>3} {'formula':>8} {'searched':>9} status")
        for e in lines:
            fm = "-" if e["formula"] is None else e["formula"]
            print(f"{e['c']:>3} {e['n']:>3} {fm:>8} {e['searched']:>9} {e['status']}")
    else:
        report = {"rows": lines}
        report["manifest"] = _manifest(argv, {}, wall, report, **budget_kw)
        _emit(report, ns.pretty)
    return 1 if any_fail else 0


def _cmd_reduce(ns, argv) -> int:
    fam = _load_family(ns.family)
    red = downset_compress(fam)
    obj = {
        "family": ns.family,
        "size": len(fam),
        "reduced_size": len(red),
        "is_downset": is_downset(red),
    }
    if ns.out:
        _write_family(red, ns.out)
        obj["out"] = ns.out
    else:
        obj["reduced"] = family_to_json_obj(red)
    _emit(obj, ns.pretty)
    return 0


def _cmd_symmetrize(ns, argv) -> int:
    fam = _load_family(ns.family)
    if ns.x is None or ns.y is None:
        raise FamilyError("symmetrize needs --x and --y")
    if ns.profitable:
        out = symmetrize_if_profitable(fam, ns.x, ns.y)
    else:
        out = symmetrize(fam, ns.x, ns.y)
    obj = {"family": ns.family, "x": ns.x, "y": ns.y, "size": len(fam), "new_size": len(out)}
    if ns.out:
        _write_family(out, ns.out)
        obj["out"] = ns.out
    else:
        obj["result"] = family_to_json_obj(out)
    _emit(obj, ns.pretty)
    return 0


def _cmd_partition(ns, argv) -> int:
    fam = _load_family(ns.family)
    ps = partition_classes(fam)
    _emit(
        {
            "family": ns.family,
            "r": ps.r,
            "classes": [list(elements_of(z)) for z in ps.classes],
            "aux": family_to_json_obj(ps.aux),
            "aux_triples_linear": aux_triples_linear(ps),
        },
        ns.pretty,
    )
    return 0


def _cmd_cancellative(ns, argv) -> int:
    if ns.check:
        fam = _load_family(ns.check)
        if ns.l is None:
            raise FamilyError("cancellative --check needs --l")
        ok, witness = is_cancellative(fam, ns.l)
        obj = {"family": ns.check, "l": ns.l, "cancellative": ok}
        if witness is not None:
            obj["witness"] = [list(elements_of(m)) for m in witness]
        _emit(obj, ns.pretty)
        return 0
    if ns.n is None or ns.l is None:
        raise FamilyError("cancellative search needs --n and --l")
    budget_kw = _budget_kwargs(ns)
    run = lambda: max_cancellative(ns.n, ns.l, **budget_kw)
    return _emit_search(ns, argv, run, budget_kw, {"n": ns.n, "l": ns.l})


def _cmd_ex3(ns, argv) -> int:
    pattern = Pattern(ns.pattern)
    if ns.n is None:
        raise FamilyError("ex3 needs --n")
    budget_kw = _budget_kwargs(ns)
    run = lambda: ex3(ns.n, pattern, **budget_kw)
    # exact values at these sizes are produced by this search, not quoted
    extra = {"n": ns.n, "pattern": pattern.value, "computed_value": True}
    return _emit_search(ns, argv, run, budget_kw, extra)


def _cmd_crosscheck(ns, argv) -> int:
    if ns.n is None or ns.c is None:
        raise FamilyError("crosscheck needs --n and --c")
    budget_kw = _budget_kwargs(ns)
    t0 = time.perf_counter()
    verdict = crosscheck_mtilde(ns.n, ns.c, **budget_kw)
    wall = (time.perf_counter() - t0) * 1000.0
    obj = {"n": ns.n, "c": ns.c, "identity_holds": verdict}
    obj["manifest"] = _manifest(argv, {}, wall, obj, **budget_kw)
    _emit(obj, ns.pretty)
    if verdict is None:
        return 3
    return 0 if verdict else 1


# ---------------------------------------------------------------------------
# argument parsing


def _add_budgets(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget-nodes", type=int, help=f"node budget (default {DEFAULT_BUDGET_NODES})")
    p.add_argument("--budget-secs", type=float, help=f"time budget (default {DEFAULT_BUDGET_SECS})")


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the produced family to this file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tracelab", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("construct", help="build a named family and report its size")
    p.add_argument("kind", choices=["partite", "turan", "special6", "downclosure", "downclosure-of-file"])
    p.add_argument("--n", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--input", help="family file for downclosure")
    _add_out(p)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("check", help="trace maximum and arrow test for a family file")
    p.add_argument("family")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("search", help="certified extremal search")
    p.add_argument(
        "--query", help="query JSON file, in place of the query flags; budget flags override its budgets"
    )
    p.add_argument("--mode", choices=["downset", "full-downset", "tilde", "tilde-complete", "antichain"])
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--k", type=int)
    _add_budgets(p)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("verify-table", help="closed-form values vs searched optima")
    p.add_argument("--rows", default="1,2,3,5,6,7")
    p.add_argument("--n-min", dest="n_min", type=int, default=5)
    p.add_argument("--n-max", dest="n_max", type=int, default=6)
    _add_budgets(p)
    p.set_defaults(fn=_cmd_verify_table)

    p = sub.add_parser("reduce", help="down-shift compression to a down-set")
    p.add_argument("family")
    _add_out(p)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("symmetrize", help="copy the x-side of a down-set over its y-side")
    p.add_argument("family")
    p.add_argument("--x", type=int)
    p.add_argument("--y", type=int)
    p.add_argument("--profitable", action="store_true", help="orient roles so the family never shrinks")
    _add_out(p)
    p.set_defaults(fn=_cmd_symmetrize)

    p = sub.add_parser("partition", help="link-equality classes and pattern family")
    p.add_argument("family")
    p.set_defaults(fn=_cmd_partition)

    p = sub.add_parser("cancellative", help="cancellative predicate or extremal search")
    p.add_argument("--check", help="family file: test the predicate instead of searching")
    p.add_argument("--n", type=int)
    p.add_argument("--l", type=int)
    _add_budgets(p)
    p.set_defaults(fn=_cmd_cancellative)

    p = sub.add_parser("ex3", help="exact Turán number for a 4-vertex triple pattern")
    p.add_argument("--n", type=int)
    p.add_argument("--pattern", choices=[pat.value for pat in Pattern], default="k4")
    _add_budgets(p)
    p.set_defaults(fn=_cmd_ex3)

    p = sub.add_parser("crosscheck", help="pair/triple vs full-family optimum identity")
    p.add_argument("--n", type=int)
    p.add_argument("--c", type=int)
    _add_budgets(p)
    p.set_defaults(fn=_cmd_crosscheck)

    for p in sub.choices.values():
        p.add_argument("--pretty", action="store_true", help="human tables instead of JSON lines")
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    ns = ap.parse_args(argv)
    try:
        return ns.fn(ns, ["tracelab"] + argv)
    except FamilyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
