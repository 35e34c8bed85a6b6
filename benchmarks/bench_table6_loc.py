"""Table VI: lines of code to instantiate one more service instance.

The paper's flexibility proxy: the XML lines declaring an extra tile
(plus the lines adding it as a destination elsewhere) and the
generated top-level Verilog lines.  We measure the same three
quantities over our XML schema and generator, on the specs the
Reed-Solomon and VR designs of Fig 11 and section VII-F are built
from.  Our schema is somewhat terser than the paper's, so the
absolute counts run lower; the claim that holds is the *scale* —
adding a replicated service instance costs tens of declarative lines,
not a re-engineering effort.
"""

from repro.config import instantiation_loc
from repro.designs import RsDesign, VrWitnessDesign

PAPER = {
    "rs3": ("25 + 6", 13),
    "witness3": ("18 + 6 x #UDP-tiles", 17),
}


def run_table6():
    results = {}
    for cls, tile in ((RsDesign, "rs3"), (VrWitnessDesign, "witness3")):
        spec = cls().spec  # of a design that is genuinely built
        results[tile] = (spec.name, instantiation_loc(spec, tile))
    return results


def bench_table6_loc(benchmark, report):
    results = benchmark.pedantic(run_table6, rounds=1, iterations=1)

    rows = []
    for tile, (design_name, loc) in results.items():
        paper_xml, paper_top = PAPER[tile]
        rows.append([
            design_name, tile,
            f"{loc.xml_declaration} + {loc.xml_destination}",
            paper_xml, loc.top_level, paper_top,
        ])
    report.table(
        ["design", "added tile", "XML decl + dest", "paper XML",
         "top-level", "paper top-level"],
        rows,
    )
    report.row()
    report.row("(our XML schema is terser than the paper's; the "
               "order-of-magnitude — tens of lines per instance — is "
               "the reproduced claim)")

    for tile, (_, loc) in results.items():
        assert loc.xml_total < 40
        assert loc.top_level < 30
        assert loc.xml_declaration >= 5
