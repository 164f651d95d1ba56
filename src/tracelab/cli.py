"""Command-line front end: construct, transform, check, search, and
verify-table workflows with reproducible file I/O.

stdout carries machine-readable JSON lines (or human tables under
``--pretty``); stderr carries diagnostics.  Exit codes: 0 success (and
"no arrow" for ``check``), 1 arrow holds / verification FAIL, 2 usage or
parse error, 3 search budget exhausted before optimality was proved.

Each command reads every flag it is given or refuses the command line
(exit 2): a flag its mode or kind does not read is a usage error, not
ignored.  ``search`` turns its query flags (``--mode --n --a --b --c
--k``) into the same object a ``--query`` file holds and reads it with
the query-file parser, ``ArrowQuery.from_json_obj``, so flags and files
follow one set of rules (``--mode downset`` and ``tilde`` name the
``full-downset`` and ``tilde-complete`` modes).  An error names the flag
typed where a file's names the key: ``mode 'antichain' does not read
--c``, ``mode 'tilde-complete' needs --c``.  ``--query`` excludes the
query flags.

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
import functools
import json
import sys
import time

from . import __version__
from .cancellative_turan import Pattern, ex3, is_cancellative, max_cancellative
from .constructions import (
    TildeFamily,
    mtilde_formula,
    partite_family,
    partite_family_size,
    special6,
    t_count,
    tilde_from_json,
    tilde_to_full,
    tilde_to_json,
    tilde_to_json_obj,
    turan_graph,
)
from .search import (
    DEFAULT_BUDGET_NODES,
    DEFAULT_BUDGET_SECS,
    MODE_DOWNSET,
    MODE_TILDE,
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
    family_to_json,
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
    # imported on first use: hashlib loads OpenSSL, about 3.5 MiB of
    # resident memory that only the commands printing a digest need
    import hashlib

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


def _budget_kwargs(ns, nodes=DEFAULT_BUDGET_NODES, secs=DEFAULT_BUDGET_SECS) -> dict:
    """Search budgets: a budget flag that was given overrides the base."""
    return {
        "budget_nodes": nodes if ns.budget_nodes is None else ns.budget_nodes,
        "budget_secs": secs if ns.budget_secs is None else ns.budget_secs,
    }


def _check_flags(ns, what: str, needs=(), refuses=()) -> None:
    """Refuse a command line that omits a flag in ``needs`` or gives one in
    ``refuses`` (flags named by their argparse dest)."""
    missing = [f for f in needs if getattr(ns, f) is None]
    unread = [f for f in refuses if getattr(ns, f) is not None]
    for verb, flags in (("needs", missing), ("does not read", unread)):
        if flags:
            names = ", ".join("--" + f.replace("_", "-") for f in flags)
            raise FamilyError(f"{what} {verb} {names}")


def _emit_family(ns, obj: dict, key: str, fam: SetFamily | TildeFamily) -> int:
    """Write ``fam`` to ``--out``, or embed it in ``obj`` under ``key``;
    then print ``obj``.  A pair/triple family is always written as JSON, a
    family as JSON when the path ends in ``.json`` and as text otherwise."""
    tilde = isinstance(fam, TildeFamily)
    if ns.out:
        if tilde:
            data = tilde_to_json(fam) + "\n"
        elif ns.out.endswith(".json"):
            data = family_to_json(fam) + "\n"
        else:
            data = family_to_text(fam)
        _write_text(ns.out, data)
        obj["out"] = ns.out
    else:
        obj[key] = tilde_to_json_obj(fam) if tilde else family_to_json_obj(fam)
    _emit(obj, ns.pretty)
    return 0


def _report(ns, argv, run, budget_kw: dict, inputs=None, render=_emit) -> int:
    """Time ``run()``, which returns (result object, exit code), attach the
    run manifest to the object, print it through ``render`` and return the
    exit code."""
    t0 = time.perf_counter()
    obj, code = run()
    wall = (time.perf_counter() - t0) * 1000.0
    obj["manifest"] = _manifest(argv, inputs or {}, wall, obj, **budget_kw)
    render(obj, ns.pretty)
    return code


def _searched(res, extra: dict) -> tuple[dict, int]:
    """A search result with the command's own keys; exit 0 when the
    optimum is proved, else 3."""
    return {**res.to_json_obj(), **extra}, 0 if res.proved_optimal else 3


# ---------------------------------------------------------------------------
# subcommands

# the flags each construct kind reads; it refuses the others
_CONSTRUCT_FLAGS = {
    "partite": ("n", "l"),
    "turan": ("n", "r"),
    "special6": (),
    "downclosure": ("input",),
    "downclosure-of-file": ("input",),
}


def _cmd_construct(ns, argv) -> int:
    reads = _CONSTRUCT_FLAGS[ns.kind]
    refuses = [f for f in ("n", "l", "r", "input") if f not in reads]
    _check_flags(ns, f"construct {ns.kind}", reads, refuses)
    kind, formula = ns.kind, None
    if kind == "partite":
        fam, formula = partite_family(ns.n, ns.l), partite_family_size(ns.n, ns.l)
    elif kind == "turan":
        fam, formula = turan_graph(ns.r, ns.n), t_count(ns.r, ns.n)
    elif kind == "special6":
        fam, formula = special6(), 16
    else:
        kind, fam = "downclosure", down_closure(_load_family(ns.input))
    obj = {"kind": kind, "size": len(fam)}
    if formula is not None:
        obj["formula"] = formula
    return _emit_family(ns, obj, "family", fam)


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


# the query-file key each search flag stands for is its own name; these
# --mode spellings stand for the file's mode names
_QUERY_FLAGS = ("mode", "n", "a", "b", "c", "k")
_MODE_NAMES = {"downset": MODE_DOWNSET, "tilde": MODE_TILDE}


def _query_from_flags(ns) -> ArrowQuery:
    """The query the search flags stand for, read by the query-file
    parser; an error names the flag typed."""
    obj = {f: getattr(ns, f) for f in _QUERY_FLAGS if getattr(ns, f) is not None}
    if ns.mode:
        obj["mode"] = _MODE_NAMES.get(ns.mode, ns.mode)
    q = ArrowQuery.from_json_obj(obj, name=lambda k: "--" + k)
    q.validate()
    return q


def _cmd_search(ns, argv) -> int:
    inputs = None
    if ns.query:
        given = [f for f in _QUERY_FLAGS if getattr(ns, f) is not None]
        if given:
            raise FamilyError(f"--query excludes the query flags, got --{', --'.join(given)}")
        text = _read_text(ns.query)
        q = ArrowQuery.from_json_obj(parse_json(text, f"query JSON in {ns.query}"))
        inputs = {ns.query: _sha256(text.encode())}
    else:
        q = _query_from_flags(ns)
    budget_kw = _budget_kwargs(ns, q.budget_nodes, q.budget_secs)
    q = dataclasses.replace(q, **budget_kw)
    run = lambda: _searched(run_query(q), {"query": q.to_json_obj()})
    return _report(ns, argv, run, budget_kw, inputs)


def _emit_table(report: dict, pretty: bool) -> None:
    """verify-table's report; under ``--pretty`` the table alone."""
    if not pretty:
        return _emit(report, pretty)
    print(f"{'c':>3} {'n':>3} {'formula':>8} {'searched':>9} status")
    for e in report["rows"]:
        print(f"{e['c']:>3} {e['n']:>3} {e['formula']:>8} {e['searched']:>9} {e['status']}")


def _cmd_verify_table(ns, argv) -> int:
    try:
        rows = [int(tok) for tok in ns.rows.split(",") if tok]
    except ValueError as exc:
        raise FamilyError(f"--rows must be comma-separated integers, got {ns.rows!r}") from exc
    if not rows or ns.n_min > ns.n_max:
        raise FamilyError(
            f"nothing to verify: --rows {ns.rows!r}, --n-min {ns.n_min}, --n-max {ns.n_max}"
        )
    budget_kw = _budget_kwargs(ns)
    # every (row, n) passes the search's and the formula table's own
    # checks before the first search runs
    table = []
    for c in rows:
        for n in range(ns.n_min, ns.n_max + 1):
            q = ArrowQuery.tilde(n, c, **budget_kw)
            q.validate()
            table.append((q, mtilde_formula(c, n)))

    def run():
        any_fail = False
        lines = []
        for q, formula in table:
            res = max_tilde(q)
            searched = res.optimum + 1
            entry = {
                "c": q.c,
                "n": q.n,
                "formula": formula,
                "searched": searched,
                "proved": res.proved_optimal,
            }
            if not res.proved_optimal:
                entry["status"] = "UNPROVED"
                any_fail = True
            else:
                entry["status"] = "PASS" if formula == searched else "FAIL"
                any_fail = any_fail or entry["status"] == "FAIL"
            lines.append(entry)
        return {"rows": lines}, 1 if any_fail else 0

    return _report(ns, argv, run, budget_kw, render=_emit_table)


def _cmd_reduce(ns, argv) -> int:
    fam = _load_family(ns.family)
    red = downset_compress(fam)
    obj = {
        "family": ns.family,
        "size": len(fam),
        "reduced_size": len(red),
        "is_downset": is_downset(red),
    }
    return _emit_family(ns, obj, "reduced", red)


def _cmd_symmetrize(ns, argv) -> int:
    _check_flags(ns, "symmetrize", needs=("x", "y"))
    fam = _load_family(ns.family)
    if ns.profitable:
        out = symmetrize_if_profitable(fam, ns.x, ns.y)
    else:
        out = symmetrize(fam, ns.x, ns.y)
    obj = {"family": ns.family, "x": ns.x, "y": ns.y, "size": len(fam), "new_size": len(out)}
    return _emit_family(ns, obj, "result", out)


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
        _check_flags(
            ns, "cancellative --check", needs=("l",), refuses=("n", "budget_nodes", "budget_secs")
        )
        fam = _load_family(ns.check)
        ok, witness = is_cancellative(fam, ns.l)
        obj = {"family": ns.check, "l": ns.l, "cancellative": ok}
        if witness is not None:
            obj["witness"] = [list(elements_of(m)) for m in witness]
        _emit(obj, ns.pretty)
        return 0
    _check_flags(ns, "cancellative search", needs=("n", "l"))
    budget_kw = _budget_kwargs(ns)
    run = lambda: _searched(max_cancellative(ns.n, ns.l, **budget_kw), {"n": ns.n, "l": ns.l})
    return _report(ns, argv, run, budget_kw)


def _cmd_ex3(ns, argv) -> int:
    _check_flags(ns, "ex3", needs=("n",))
    pattern = Pattern(ns.pattern)
    budget_kw = _budget_kwargs(ns)
    # exact values at these sizes are produced by this search, not quoted
    extra = {"n": ns.n, "pattern": pattern.value, "computed_value": True}
    run = lambda: _searched(ex3(ns.n, pattern, **budget_kw), extra)
    return _report(ns, argv, run, budget_kw)


def _cmd_crosscheck(ns, argv) -> int:
    _check_flags(ns, "crosscheck", needs=("n", "c"))
    budget_kw = _budget_kwargs(ns)

    def run():
        verdict = crosscheck_mtilde(ns.n, ns.c, **budget_kw)
        code = 3 if verdict is None else 0 if verdict else 1
        return {"n": ns.n, "c": ns.c, "identity_holds": verdict}, code

    return _report(ns, argv, run, budget_kw)


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
    p.add_argument("kind", choices=list(_CONSTRUCT_FLAGS))
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
        "--query",
        help="query JSON file; excludes --mode/--n/--a/--b/--c/--k, which follow the same rules "
        "(a key the mode does not read exits 2); budget flags override its budgets",
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
    p.add_argument("--rows", default="1,2,3,5,6,7,8")
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


# the parser tree takes milliseconds to build; main builds it once per process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ns = _parser().parse_args(argv)
    try:
        return ns.fn(ns, ["tracelab"] + argv)
    except FamilyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
