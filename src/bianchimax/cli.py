"""Command-line front end with stable JSON input and output.

Matrices and orthogonal maps travel as JSON (see serialize); diagnostics go
to stderr.  Exit codes:

* 0: a successful result, including a negative membership answer;
* 1: an error in the input or a failed `verify` suite, named in the
  {"error": ...} payload, or a reader that closed stdout before the output
  was written;
* 2: invalid command-line arguments (reported by argparse);
* 3: an internal self-check failed, which is a bug in the library; the
  payload is {"error": "internal self-check failed: ..."}.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

from .field import field_params, prime_factors
from .involutions import (
    atkin_lehner,
    bezout_pair,
    classify_coset,
    extension_index,
    factor_group_table,
)
from .orthogonal import LiftError, in_discriminant_kernel, preserves_lattice, spin_lift, spin_map
from .serialize import matrix_from_json, matrix_to_json, orthomap_from_json, orthomap_to_json


class CommandResult:
    """A command's JSON payload, its exit code (0, 1 or 3) and its stderr lines."""

    def __init__(
        self, payload: Any, exit_code: int = 0, diagnostics: list[str] | None = None
    ) -> None:
        self.payload = payload
        self.exit_code = exit_code
        self.diagnostics = [] if diagnostics is None else diagnostics


def _error(message: str, exit_code: int = 1) -> CommandResult:
    return CommandResult({"error": message}, exit_code, [message])


def _read_json(args: argparse.Namespace) -> Any:
    if getattr(args, "file", None):
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("input JSON nests too deeply") from None


def cmd_vd(args: argparse.Namespace) -> CommandResult:
    params = field_params(args.m)
    pair = bezout_pair(params, args.d)
    mat = atkin_lehner(params, args.d, pair)
    payload = matrix_to_json(mat)
    payload["u"] = pair.u
    payload["v"] = pair.v
    return CommandResult(payload)


def cmd_classify(args: argparse.Namespace) -> CommandResult:
    label = classify_coset(matrix_from_json(_read_json(args)))
    payload = {"member": True, "label": label} if label else {"member": False}
    return CommandResult(payload)


def cmd_phi(args: argparse.Namespace) -> CommandResult:
    mat = matrix_from_json(_read_json(args))
    image = spin_map(mat)
    payload = orthomap_to_json(image)
    payload["orthogonal"] = image.is_orthogonal()
    lattice = preserves_lattice(image)
    payload["lattice_preserving"] = lattice
    payload["discriminant_kernel"] = in_discriminant_kernel(image) if lattice else False
    return CommandResult(payload)


def cmd_lift(args: argparse.Namespace) -> CommandResult:
    phi_map = orthomap_from_json(_read_json(args))
    try:
        lifted = spin_lift(phi_map)
    except LiftError as exc:
        return _error(f"lift failed at stage {exc.stage}: {exc}")
    return CommandResult(matrix_to_json(lifted))


def cmd_index(args: argparse.Namespace) -> CommandResult:
    params = field_params(args.m)
    return CommandResult({"m": params.m, "d_K": params.d_K, "index": extension_index(params)})


def cmd_table(args: argparse.Namespace) -> CommandResult:
    params = field_params(args.m)
    if (nu := len(prime_factors(params.d_K))) > 10:  # 4**nu entries; m < 2**64 allows nu = 16
        raise ValueError(f"table is capped at 10 primes of d_K, but d_K = {params.d_K} has {nu}")
    labels, table = factor_group_table(params)
    return CommandResult({"m": params.m, "d_K": params.d_K, "labels": labels, "table": table})


def cmd_verify(args: argparse.Namespace) -> CommandResult:
    # Imported here: the suites and their samplers are not needed by any other command.
    from .verify import run_suites

    for m in args.m:
        field_params(m)  # validate before running anything
    results = run_suites(args.m, height=args.height, seed=args.seed)
    suites = []
    ok = True
    for r in results:
        entry: dict[str, Any] = {"name": r.name, "m": r.m, "passed": r.passed, "failed": r.failed}
        if r.failed:
            ok = False
            entry["counterexamples"] = r.counterexamples
        suites.append(entry)
    diagnostics = [
        f"{r.name}[m={r.m}]: {r.passed} passed, {r.failed} failed" for r in results
    ]
    payload = {"ok": ok, "seed": args.seed, "height": args.height, "suites": suites}
    return CommandResult(payload, 0 if ok else 1, diagnostics)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bianchimax",
        description=(
            "Exact computations in the maximal discrete extension of SL2 over "
            "imaginary quadratic integers and its orthogonal realization."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_vd = sub.add_parser("vd", help="construct the Atkin-Lehner involution V_d")
    p_vd.add_argument("--m", type=int, required=True, help="squarefree m of Q(sqrt(-m))")
    p_vd.add_argument("--d", type=int, required=True, help="positive squarefree divisor of |d_K|")
    p_vd.set_defaults(func=cmd_vd)

    for name, func, help_text in (
        ("classify", cmd_classify, "membership and coset label of a matrix (JSON on stdin)"),
        ("phi", cmd_phi, "orthogonal image of a matrix with lattice flags (JSON on stdin)"),
        ("lift", cmd_lift, "exact lift of an orthogonal map back to a matrix (JSON on stdin)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--file", help="read the input JSON from a file instead of stdin")
        p.set_defaults(func=func)

    p_index = sub.add_parser("index", help="index of SL2(O_K) in its maximal discrete extension")
    p_index.add_argument("--m", type=int, required=True)
    p_index.set_defaults(func=cmd_index)

    p_table = sub.add_parser("table", help="Cayley table of the coset labels")
    p_table.add_argument("--m", type=int, required=True)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run the self-verification suites")
    p_verify.add_argument("--m", type=int, action="append", required=True,
                          help="field parameter, repeatable")
    p_verify.add_argument("--height", type=int, default=2,
                          help="coordinate bound for exhaustive enumerations (default 2)")
    p_verify.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result: CommandResult = args.func(args)
    except (ValueError, ZeroDivisionError, json.JSONDecodeError, OSError) as exc:
        result = _error(str(exc))
    except AssertionError as exc:
        result = _error(f"internal self-check failed: {exc}", exit_code=3)
    exit_code = result.exit_code
    try:
        print(json.dumps(result.payload, sort_keys=True))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (as `| head -c 100` may).  Point stdout
        # at devnull so that the flush at exit does not raise again, and exit 1
        # as the Python docs advise for EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        exit_code = 1
    for line in result.diagnostics:
        print(line, file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
