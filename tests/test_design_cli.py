"""Tests for the design-file command-line tool."""

import pytest

from repro.config.examples import RS_DESIGN_XML, UDP_ECHO_XML
from repro.designs import SHIPPED
from repro.tools.design import main
from repro.tools.lint import main as lint_main


@pytest.fixture
def design_file(tmp_path):
    path = tmp_path / "design.xml"
    path.write_text(UDP_ECHO_XML)
    return str(path)


@pytest.fixture
def bad_design_file(tmp_path):
    # Fig 5a placement: swap ip_rx / udp_rx coordinates.
    text = UDP_ECHO_XML.replace(
        "<name>ip_rx</name>\n    <type>ip_rx</type>\n    <x>1</x>",
        "<name>ip_rx</name>\n    <type>ip_rx</type>\n    <x>2</x>",
    ).replace(
        "<name>udp_rx</name>\n    <type>udp_rx</type>\n    <x>2</x>",
        "<name>udp_rx</name>\n    <type>udp_rx</type>\n    <x>1</x>",
    )
    path = tmp_path / "bad.xml"
    path.write_text(text)
    return str(path)


class TestCli:
    def test_validate_ok(self, design_file, capsys):
        assert main(["validate", design_file]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "(3, 1)" in out  # the auto-generated empty tile

    def test_validate_broken(self, tmp_path, capsys):
        path = tmp_path / "broken.xml"
        path.write_text(UDP_ECHO_XML.replace("<x>3</x>", "<x>9</x>"))
        assert main(["validate", str(path)]) == 1
        assert "error:" in capsys.readouterr().out

    def test_analyze_clean(self, design_file, capsys):
        assert main(["analyze", design_file]) == 0
        assert "deadlock-free" in capsys.readouterr().out

    def test_analyze_deadlock(self, bad_design_file, capsys):
        assert main(["analyze", bad_design_file]) == 2
        assert "DEADLOCK" in capsys.readouterr().out

    def test_generate(self, design_file, capsys):
        assert main(["generate", design_file]) == 0
        out = capsys.readouterr().out
        assert "wire [511:0]" in out
        assert "eth_rx_inst" in out

    def test_loc(self, design_file, capsys):
        assert main(["loc", design_file, "app"]) == 0
        out = capsys.readouterr().out
        assert "XML declaration" in out

    def test_resources(self, tmp_path, capsys):
        path = tmp_path / "rs.xml"
        path.write_text(RS_DESIGN_XML)
        assert main(["resources", str(path)]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out
        assert "rs0" in out

    def test_a_shipped_name_is_a_design_too(self, capsys):
        for name in sorted(SHIPPED):
            assert main(["validate", name]) == 0
            assert main(["generate", name]) == 0
        assert main(["loc", "rs", "rs3"]) == 0
        assert "XML declaration:  14 lines" in capsys.readouterr().out

    def test_unreadable_or_not_a_design_exits_one(self, tmp_path, capsys):
        path = tmp_path / "junk.xml"
        path.write_text("<design width='2'><tile>")
        assert main(["validate", str(tmp_path / "nope.xml")]) == 1
        assert main(["generate", str(path)]) == 1
        assert capsys.readouterr().err.count("error:") == 2


#: What only a tile factory used to find out, after ``validate`` had
#: said OK: (edit to the UDP echo file, finding code, what it names).
MALFORMED = {
    "unknown type": (("<type>echo_app</type>", "<type>echo_ap</type>"),
                     "BHV125", "echo_ap"),
    "missing required param": (
        ('<y>1</y>\n    <param name="my_mac" value="02:be:e0:00:00:01"/>',
         "<y>1</y>"), "BHV126", "my_mac"),
    "unparsable value": (('value="none"', 'value="fast"'),
                         "BHV127", "line_rate"),
    "param the type does not take": (
        ('name="line_rate"', 'name="line_rat"'), "BHV128", "line_rat"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_tile_is_a_finding_not_a_traceback(case, tmp_path,
                                                     capsys):
    (old, new), code, named = MALFORMED[case]
    assert UDP_ECHO_XML.count(old) == 1
    path = tmp_path / "malformed.xml"
    path.write_text(UDP_ECHO_XML.replace(old, new))
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert f"error: {code}" in out and named in out and "OK" not in out
    assert main(["generate", str(path)]) == 1
    assert code in capsys.readouterr().err
    assert lint_main([str(path)]) == 1
    assert f"error {code}" in capsys.readouterr().out
