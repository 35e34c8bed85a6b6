"""Design-configuration tooling (paper section V-G).

The paper drives its Verilog generation and deadlock analysis from an
XML design file: dimensions plus an element per NoC tile endpoint with
a name, X/Y coordinates, and optional next-hop information.  This
package is the same tooling for the simulated world:

- :mod:`repro.config.schema` — the design description objects;
- :mod:`repro.config.xmlio` — XML parsing and pretty-printing;
- :mod:`repro.config.registry` — the tile types a spec can name: the
  class each builds, the ``<param>``s it takes, what it requires;
- :mod:`repro.config.validate` — topology soundness checks (duplicate
  or out-of-range coordinates, unknown destinations) and automatic
  empty-tile fill for the mesh rectangle;
- :mod:`repro.config.generate` — "top-level wiring" generation: builds
  the runnable design (mesh + tiles + next-hop tables + deadlock
  check; every class under :mod:`repro.designs` is one) and emits the
  equivalent top-level wiring text whose line counts Table VI reports;
- :mod:`repro.config.loc` — the lines-of-code accounting for Table VI.

A name is imported from its submodule when first asked for
(:mod:`repro._exports`): building a design loads the schema, the
registry, the validator and the generator, but no XML parser.
"""

from typing import TYPE_CHECKING

from repro._exports import lazy_exports

# ``validate`` is named like its submodule, whose import would rebind
# the package attribute to the module: bound here instead — every
# design that is built runs it anyway.
from repro.config.validate import ValidationError, validate

if TYPE_CHECKING:
    from repro.config.generate import GeneratedDesign, generate_top_level
    from repro.config.loc import instantiation_loc
    from repro.config.registry import TileType, register_tile_type
    from repro.config.schema import (
        ChainSpec,
        DesignSpec,
        DestSpec,
        TileSpec,
    )
    from repro.config.xmlio import design_from_xml, design_to_xml

#: exported name -> the submodule that defines it.
_EXPORTS = {
    "ChainSpec": "schema",
    "DesignSpec": "schema",
    "DestSpec": "schema",
    "GeneratedDesign": "generate",
    "TileSpec": "schema",
    "TileType": "registry",
    "design_from_xml": "xmlio",
    "design_to_xml": "xmlio",
    "generate_top_level": "generate",
    "instantiation_loc": "loc",
    "register_tile_type": "registry",
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted([*_EXPORTS, "ValidationError", "validate"])
