"""The known-answer table: which properties each planted bug or edit violates.

Every expectation here is derived by hand from the generators' policy
semantics (:mod:`repro.workloads.wan`, :mod:`repro.workloads.fullmesh`),
never from a verifier run.  An expectation maps each property name to the
set of routers its failing checks must be blamed on; an empty set means
the property passes.  A property verdict is an operation: it fails when
the verdict, the blamed routers, an UNKNOWN check or a degraded run
disagrees with the table.

Why each bug breaks what it breaks:

* **Edge router without the bogon deny clause** (``buggy_edge_router``,
  edit ``drop-bogon-filter``).  Its peer import then accepts any prefix up
  to /24 (the permit clause), clearing communities and setting local-pref
  100.  Each Table-4a family below forbids a range that lies inside the
  bogon list *and* contains prefixes of length <= 24, so each is violated
  on that router's peer imports.  ``no-long-prefixes`` (the permit clause
  still stops at /24), ``no-regional-communities`` (communities are
  cleared), ``normalized-local-pref`` (set to 100) and
  ``no-invalid-as-path`` (its own clause) still hold.  Reused space
  (172.16/12) from a peer now enters with no region community, which
  breaks the Table-4c interference invariant "reused routes carry a
  region community" at that router, so every region's liveness property
  fails there too.  Table 4b is untouched: peer routes never carry a
  ``FromRegion`` ghost, so its invariants hold vacuously for them.
* **Edge router without the AS-path deny clause** (``adhoc_aspath_router``,
  edit ``drop-aspath-filter``).  Only ``no-invalid-as-path`` mentions
  AS 666; the bogon clause still drops reused space, so nothing else
  changes.
* **Region whose DC import tags an undocumented community**
  (``wrong_community_region``, edit ``wrong-dc-community``).  The region's
  DC attach router tags reused routes with 65000:4999 instead of the
  region community, violating that region's Table-4b invariant "reused
  FromRegion routes carry exactly the region community" at the DC import.
  Inter-region imports only reject documented communities, so those
  routes can leak into every other region: the interference invariant at
  the attach router fails for every region's Table-4c liveness property,
  and the region's own propagation check fails at the same import.
* **Benign deny clause** (edit ``benign-deny``).  Denying more routes on
  one import can only shrink the set of routes anywhere, so no safety
  property can start failing.
* **Full-mesh router whose iBGP export to R2 clears communities**.  The
  no-transit proof needs every edge to keep "from E1 implies tagged
  100:1"; that router's export to R2 strips the tag, so exactly that
  export check fails, blamed on that router.
"""

from __future__ import annotations

import re

# Table-4a families whose forbidden range is a bogon of length <= /24.
BOGON_FAMILIES = (
    "no-bogons",
    "no-default-route",
    "no-reused-space",
    "no-rfc1918-10",
    "no-loopback",
    "no-link-local",
    "no-multicast",
)
ASPATH_FAMILY = "no-invalid-as-path"


def clean_expected(facts: dict) -> dict[str, set[str]]:
    """Every WAN property passes (the unmodified generator output)."""
    families = facts["families"]
    return {name: set() for family in ("4a", "4b", "4c") for name in families[family]}


def _region_safety(region: int) -> str:
    return f"ip-reuse-safety-region{region}"


def fullmesh_expected(bugs: dict) -> dict[str, set[str]]:
    return {"no-transit": {bugs["clear_communities_router"]}}


def wan_t4_expected(bugs: dict, facts: dict) -> dict[str, set[str]]:
    expected = clean_expected(facts)
    bogon = bugs["buggy_edge_router"]
    region = bugs["wrong_community_region"]
    attach = facts["dc_attach"][str(region)]
    for name in BOGON_FAMILIES:
        expected[name] = {bogon}
    expected[ASPATH_FAMILY] = {bugs["adhoc_aspath_router"]}
    expected[_region_safety(region)] = {attach}
    for name in facts["families"]["4c"]:
        expected[name] = {bogon, attach}
    return expected


def edit_expected(kind: str, router: str, knob, facts: dict) -> dict[str, set[str]]:
    """Expected verdicts for one single-router edit of the clean WAN."""
    expected = clean_expected(facts)
    if kind == "drop-bogon-filter":
        for name in BOGON_FAMILIES:
            expected[name] = {router}
    elif kind == "drop-aspath-filter":
        expected[ASPATH_FAMILY] = {router}
    elif kind == "wrong-dc-community":
        expected[_region_safety(knob)] = {router}
    elif kind != "benign-deny":
        raise ValueError(f"unknown edit kind {kind!r}")
    return expected


def expected_exit(expected: dict[str, set[str]]) -> int:
    """The CLI's exit code for these verdicts: 1 on any counterexample."""
    return 1 if any(expected.values()) else 0


def mismatches(expected: dict[str, set[str]], verdicts: list[dict]) -> list[str]:
    """One line per property whose verdict disagrees with the table."""
    problems = []
    seen = {v["name"]: v for v in verdicts}
    for name in sorted(set(expected) | set(seen)):
        if name not in seen:
            problems.append(f"{name}: no verdict")
            continue
        if name not in expected:
            problems.append(f"{name}: not in the known-answer table")
            continue
        verdict = seen[name]
        want = expected[name]
        wrong = []
        if verdict["unknowns"] or verdict["degraded"]:
            wrong.append(f"{verdict['unknowns']} unknown, degraded={verdict['degraded']}")
        if verdict["passed"] != (not want):
            wrong.append(f"passed={verdict['passed']}, expected {not want}")
        if set(verdict["blamed"]) != want:
            wrong.append(f"blamed {sorted(verdict['blamed'])}, expected {sorted(want)}")
        if wrong:
            problems.append(f"{name}: {'; '.join(wrong)}")
    return problems


_SUMMARY = re.compile(r"^(?P<name>[^:]+): (?:safety|liveness) at .*: (?P<status>PASSED|FAILED)[^—]* — ")
_BLAMED = re.compile(r"^\s*blamed router: (?P<router>\S+) ")


def parse_cli_verdicts(stdout: str) -> list[dict]:
    """Per-property verdicts from ``lightyear verify``/``reverify`` output."""
    verdicts: list[dict] = []
    current: dict | None = None
    blamed: set[str] = set()
    for line in stdout.splitlines():
        match = _SUMMARY.match(line)
        if match:
            current = {
                "name": match["name"],
                "passed": match["status"] == "PASSED",
                "unknowns": 0,
                "degraded": False,
                "blamed": [],
            }
            blamed = set()
            verdicts.append(current)
            continue
        if current is None:
            continue
        match = _BLAMED.match(line)
        if match:
            blamed.add(match["router"])
            current["blamed"] = sorted(blamed)
        elif "UNKNOWN (" in line:
            current["unknowns"] += 1
        elif line.startswith("degraded execution:"):
            current["degraded"] = True
    return verdicts
