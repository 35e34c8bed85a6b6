"""A run imports what it runs (DESIGN.md "Start-up: what a run imports").

``repro.designs``, ``repro.analysis`` and ``repro.config`` resolve
their exports on first use, and the tile registry imports a tile class
when a spec first names it, so what a process has loaded is a property
of the design it built.  Each case runs in its own interpreter:
``sys.modules`` of the test process says nothing, pytest having
imported every design.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def run_python(code: str, *argv: str, hash_seed: str | None = None) -> str:
    """Run ``python -c code argv...`` against this checkout's ``src``
    and return its stdout; a non-zero exit fails the test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


#: What a UDP echo must not pay for: the two heavy third-party
#: packages, the subsystems only other designs run, and the XML side
#: of the spec it is built from.
NOT_FOR_UDP_ECHO = ("numpy", "networkx", "repro.tcp",
                    "repro.apps.reed_solomon", "repro.apps.vr",
                    "repro.analysis.sanitize", "xml.etree",
                    "repro.config.xmlio", "repro.config.loc",
                    "repro.tiles.nat", "repro.tiles.ipinip",
                    "repro.tiles.loadbalancer", "repro.tiles.logger")

LOADED = """
import sys
def loaded(roots):
    return sorted(m for m in sys.modules
                  if any(m == r or m.startswith(r + ".") for r in roots))
"""


def test_udp_echo_loads_no_other_designs_code():
    out = run_python(LOADED + f"""
from repro.designs import UdpEchoDesign, attach_client
design = UdpEchoDesign(udp_port=7)
source, sink = attach_client(design, b"hello", count=1)
design.sim.run_until(lambda: sink.count >= 1)
print(loaded({NOT_FOR_UDP_ECHO!r}))
""")
    assert out.strip() == "[]"


def test_importing_the_rs_design_does_import_numpy():
    """Not the class, whose spec is text: the design it builds."""
    out = run_python(LOADED + """
from repro.designs import RsDesign
roots = ["numpy", "repro.apps.reed_solomon", "networkx"]
RsDesign.spec()
print(loaded(roots))
RsDesign()
print(loaded(roots))
""")
    spec_only, built = out.splitlines()
    assert spec_only == "[]"
    assert "'numpy'" in built and "'repro.apps.reed_solomon'" in built
    assert "networkx" not in built


#: name -> code that builds ``design`` and then starts its traffic,
#: leaving ``progress()`` to say whether any of it got through.
TRAFFIC = {
    "ScaledEchoDesign": """
from repro.designs import ScaledEchoDesign, attach_client
design = ScaledEchoDesign(n_apps=2, width=4, height=2)
built = set(sys.modules)
source, sink = attach_client(design, bytes(64), rate=None)
progress = lambda: sink.count
""",
    "RsDesign": """
from repro.designs import RsDesign, attach_client
design = RsDesign()
built = set(sys.modules)
source, sink = attach_client(design, bytes(range(256)) * 4, rate=None)
progress = lambda: sink.count
""",
    "TcpServerDesign": """
from repro.loadgen.flows import build_competing_flows
design, peers = build_competing_flows(n_flows=2)
built = set(sys.modules)
progress = lambda: design.tcp_rx.segments_in
""",
}


@pytest.mark.parametrize("name", sorted(TRAFFIC))
def test_running_a_design_imports_nothing(name):
    """Construction is where the importing ends: 2 000 cycles of
    traffic leave ``sys.modules`` as the constructor left it, so no
    set-up cost hides in the timed part of a run."""
    out = run_python("import sys" + TRAFFIC[name] + """
design.sim.run(2000)
assert progress() > 0, "no traffic got through"
print(sorted(set(sys.modules) - built))
""")
    assert out.strip() == "[]"


PACKAGES = ["repro.designs", "repro.analysis", "repro.config",
            "repro.tiles"]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    out = run_python("""
import importlib, sys
package = importlib.import_module(sys.argv[1])
# Everything lazy is exported; what is not lazy is defined in place.
assert set(package._EXPORTS) <= set(package.__all__)
namespace = {}
exec(f"from {sys.argv[1]} import *", namespace)
for name in package.__all__:
    assert namespace[name] is getattr(package, name), name
    assert name in vars(package), name  # resolved once, then cached
print(len(package.__all__))
""", package)
    assert int(out) >= 13


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_is_an_attribute_error_naming_the_package(package):
    out = run_python("""
import importlib, sys
package = importlib.import_module(sys.argv[1])
try:
    package.NoSuchDesign
except AttributeError as error:
    print(error)
try:
    exec(f"from {sys.argv[1]} import NoSuchDesign")
except ImportError as error:
    print(type(error).__name__)
""", package)
    message, from_import = out.splitlines()
    assert package in message and "NoSuchDesign" in message
    assert from_import == "ImportError"
