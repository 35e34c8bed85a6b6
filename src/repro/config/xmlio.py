"""XML reading/writing of design descriptions.

The element shapes follow the paper's description: the file carries the
design dimensions and "an element for each NoC tile endpoint [with] a
name ... as well as its X and Y coordinates", plus optional fields for
generating next-hop tables.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.config.schema import ChainSpec, DesignSpec, DestSpec, TileSpec


def design_from_xml(text: str) -> DesignSpec:
    """Parse a design file; anything that is not one is a ValueError."""
    try:
        return _design_from_root(ET.fromstring(text))
    except ET.ParseError as error:
        raise ValueError(f"not well-formed XML: {error}") from None
    except KeyError as error:
        raise ValueError(f"missing attribute {error}") from None


def _design_from_root(root: ET.Element) -> DesignSpec:
    if root.tag != "design":
        raise ValueError(f"expected <design>, got <{root.tag}>")
    design = DesignSpec(
        name=root.attrib.get("name", "unnamed"),
        width=int(root.attrib["width"]),
        height=int(root.attrib["height"]),
    )
    for element in root:
        if element.tag == "tile":
            design.tiles.append(_tile_from_xml(element))
        elif element.tag == "chain":
            design.chains.append(
                ChainSpec(tiles=element.attrib["tiles"].split())
            )
        else:
            raise ValueError(f"unknown element <{element.tag}>")
    return design


def _tile_from_xml(element: ET.Element) -> TileSpec:
    def text_of(tag: str, default=None) -> str:
        child = element.find(tag)
        if child is None or child.text is None:
            if default is None:
                raise ValueError(
                    f"tile element missing <{tag}>: "
                    f"{ET.tostring(element, encoding='unicode')[:120]}"
                )
            return default
        return child.text.strip()

    tile = TileSpec(
        name=text_of("name"),
        type=text_of("type"),
        x=int(text_of("x")),
        y=int(text_of("y")),
    )
    for param in element.findall("param"):
        tile.params[param.attrib["name"]] = param.attrib["value"]
    for dest in element.findall("dest"):
        targets = dest.findtext("target", "").split()
        tile.dests.append(DestSpec(
            key=dest.findtext("key", "default").strip(),
            targets=targets,
            policy=dest.findtext("policy", "flow_hash").strip(),
        ))
    return tile


def design_to_xml(design: DesignSpec) -> str:
    """Pretty-print a design; the line counts feed Table VI."""
    lines = [f'<design name="{design.name}" width="{design.width}" '
             f'height="{design.height}">']
    for tile in design.tiles:
        lines.extend(_tile_to_lines(tile))
    for chain in design.chains:
        lines.append(f'  <chain tiles="{" ".join(chain.tiles)}"/>')
    lines.append("</design>")
    return "\n".join(lines) + "\n"


def _tile_to_lines(tile: TileSpec) -> list[str]:
    lines = ["  <tile>",
             f"    <name>{tile.name}</name>",
             f"    <type>{tile.type}</type>",
             f"    <x>{tile.x}</x>",
             f"    <y>{tile.y}</y>"]
    for key, value in tile.params.items():
        lines.append(f'    <param name="{key}" value="{value}"/>')
    for dest in tile.dests:
        lines.append("    <dest>")
        lines.append(f"      <key>{dest.key}</key>")
        lines.append(f"      <target>{' '.join(dest.targets)}</target>")
        lines.append(f"      <policy>{dest.policy}</policy>")
        lines.append("    </dest>")
    lines.append("  </tile>")
    return lines


def tile_xml_line_count(tile: TileSpec) -> int:
    """Lines this tile's element occupies in the pretty-printed XML."""
    return len(_tile_to_lines(tile))


def dest_xml_line_count(design: DesignSpec, target_name: str) -> int:
    """Lines other tiles spend declaring ``target_name`` as a dest."""
    total = 0
    for tile in design.tiles:
        if tile.name == target_name:
            continue
        for dest in tile.dests:
            if target_name in dest.targets:
                total += 5  # the <dest> block is five lines
    return total
