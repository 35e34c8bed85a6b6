"""The design tool (paper section V-G) as a command line.

    python -m repro.tools.design validate  design.xml
    python -m repro.tools.design analyze   design.xml
    python -m repro.tools.design generate  udp_echo
    python -m repro.tools.design loc       rs rs3
    python -m repro.tools.design resources design.xml

The design is an XML path or the name of a shipped design, read from
the spec its class publishes (:func:`repro.designs.load_design`).
``validate`` checks topology soundness and reports the auto-generated
empty tiles; ``analyze`` runs the compile-time deadlock analysis over
the declared chains; ``generate`` prints the top-level wiring;
``loc`` prints the Table VI instantiation cost of one tile;
``resources`` prints the Table V-style utilisation summary.
"""

from __future__ import annotations

import argparse
import sys

from repro.config import generate_top_level, instantiation_loc, validate
from repro.config.registry import TILE_TYPES
from repro.config.validate import ValidationError
from repro.designs import load_design
from repro.analysis.deadlock import analyze_chains
from repro.resources import tile_cost
from repro import params


def _load(target: str):
    return load_design(target)[0]


def cmd_validate(args) -> int:
    design = _load(args.design)
    try:
        report = validate(design)
    except ValidationError as error:
        for problem in error.problems:
            print(f"error: {problem}")
        return 1
    print(f"design '{design.name}': {len(design.tiles)} tiles on a "
          f"{design.width}x{design.height} mesh — OK")
    if report.empty_coords:
        coords = ", ".join(str(c) for c in report.empty_coords)
        print(f"auto-generated empty tiles at: {coords}")
    for warning in report.warnings:
        print(f"warning: {warning}")
    return 0


def cmd_analyze(args) -> int:
    design = _load(args.design)
    validate(design)
    chains = [chain.tiles for chain in design.chains]
    if not chains:
        print("no chains declared; nothing to analyze")
        return 0
    cycle = analyze_chains(chains, design.coords())
    if cycle is None:
        print(f"{len(chains)} chain(s): deadlock-free")
        return 0
    witness = " -> ".join(f"{coord}:{port.value}"
                          for coord, port in cycle)
    print(f"DEADLOCK: resource cycle [{witness}]")
    print("re-place the tiles so each chain acquires links in order")
    return 2


def cmd_generate(args) -> int:
    design = _load(args.design)
    sys.stdout.write(generate_top_level(design))
    return 0


def cmd_loc(args) -> int:
    design = _load(args.design)
    loc = instantiation_loc(design, args.tile)
    print(f"instantiating {args.tile!r} in '{design.name}':")
    print(f"  XML declaration:  {loc.xml_declaration} lines")
    print(f"  XML destinations: {loc.xml_destination} lines")
    print(f"  top-level wiring: {loc.top_level} lines")
    return 0


def cmd_resources(args) -> int:
    design = _load(args.design)
    validate(design)
    total_luts = 0
    total_brams = 0.0
    for tile in design.tiles:
        cost = tile_cost(TILE_TYPES[tile.type].tile_class().KIND)
        total_luts += cost.luts
        total_brams += cost.brams
        print(f"  {tile.name:<16} {cost.luts:>7} LUTs "
              f"{cost.brams:>5.1f} BRAM")
    for coord in design.empty_coords():
        cost = tile_cost("empty")
        total_luts += cost.luts
        print(f"  empty@{coord!s:<10} {cost.luts:>7} LUTs   0.0 BRAM")
    print(f"  {'TOTAL':<16} {total_luts:>7} LUTs "
          f"({100 * total_luts / params.U200_TOTAL_LUTS:.2f}%) "
          f"{total_brams:>5.1f} BRAM "
          f"({100 * total_brams / params.U200_TOTAL_BRAMS:.2f}%)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.design",
        description="Beehive design-file tooling (validate / analyze /"
                    " generate / loc / resources).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, extra in (
        ("validate", cmd_validate, ()),
        ("analyze", cmd_analyze, ()),
        ("generate", cmd_generate, ()),
        ("loc", cmd_loc, ("tile",)),
        ("resources", cmd_resources, ()),
    ):
        command = sub.add_parser(name)
        command.add_argument(
            "design", help="design XML path or shipped design name")
        for argument in extra:
            command.add_argument(argument)
        command.set_defaults(handler=handler)
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError) as error:
        # Unreadable, not a design file, or one ``validate`` rejects.
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
