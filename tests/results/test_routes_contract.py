"""The route table contract: explorer routes == docs/results.md.

``repro web`` serves one route per entry of
:data:`repro.results.web.ROUTES`; a listing route takes exactly the
filters of its :data:`repro.results.store.LISTINGS` entry.  The
endpoint table in docs/results.md must name the same routes with the
same filters, in both directions, so a route or filter added, renamed
or deleted without the docs (or the other way round) fails CI.
"""

import os
import re

from repro.results.store import LISTINGS
from repro.results.web import ROUTES

_DOCS = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                     "docs", "results.md")


def _documented():
    """The docs endpoint table as ``{route: [filters]}``, in order."""
    with open(_DOCS, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    start = lines.index("| endpoint | filters | returns |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        endpoint, filters = line.split("|")[1:3]
        (route,) = re.findall(r"`([^`]+)`", endpoint)
        table[route] = re.findall(r"`([^`]+)`", filters)
    return table


def _served():
    return {route: list(LISTINGS[target].filters)
            if isinstance(target, str) else []
            for route, target in ROUTES}


class TestRouteTableMatchesDocs:
    def test_same_routes_in_the_same_order(self):
        assert list(_documented()) == [route for route, _ in ROUTES]

    def test_every_served_filter_is_documented(self):
        documented = _documented()
        for route, filters in _served().items():
            assert documented[route] == filters, route

    def test_every_documented_filter_is_served(self):
        served = _served()
        for route, filters in _documented().items():
            assert served[route] == filters, route

    def test_every_listing_has_a_route(self):
        targets = {target for _, target in ROUTES
                   if isinstance(target, str)}
        assert targets == set(LISTINGS)
