"""Hash-once frozen values: the cached hash never leaves the process.

``str`` hashes are salted per process, so a hash cached on a predicate,
universe or route-map clause must not ride along when the value is
pickled to a worker or into a workspace cache.
"""

from __future__ import annotations

import pickle

import pytest

from repro.bgp.policy import DeleteCommunity, MatchCommunity, RouteMap, RouteMapClause
from repro.bgp.route import Community
from repro.lang.predicates import AllOf, GhostIs, HasCommunity, Not, TruePred
from repro.lang.universe import AttributeUniverse

TAG = Community(100, 1)
CLAUSE = RouteMapClause(10, matches=(MatchCommunity(TAG),), actions=(DeleteCommunity(TAG),))


@pytest.mark.parametrize(
    "value",
    [
        AllOf((HasCommunity(TAG), Not(GhostIs("G")))),
        TruePred(),
        AttributeUniverse((TAG,), (65000,), ("G",)),
        CLAUSE,
        RouteMap("STRIP", (CLAUSE,)),
    ],
    ids=["predicate", "fieldless-predicate", "universe", "clause", "route-map"],
)
def test_pickled_state_is_the_same_before_and_after_hashing(value):
    before = pickle.dumps(value)
    hash(value)
    assert pickle.dumps(value) == before
    copy = pickle.loads(before)
    assert copy == value and hash(copy) == hash(value)
    assert "_cached_hash" not in vars(pickle.loads(pickle.dumps(value)))
