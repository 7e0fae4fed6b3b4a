"""Tests for the POI database and naming."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.calibration import EngineCalibration
from repro.geo.coords import LatLon
from repro.geo.granularity import select_study_locations
from repro.queries.local import local_queries
from repro.web.grid import DISTANCE_EPSILON_MILES, GeoGrid, GridCell
from repro.web.naming import business_name, city_name
from repro.web.pois import (
    CATEGORY_SPECS,
    CategorySpec,
    Poi,
    PoiDatabase,
    category_for_term,
)
from repro.web.urls import Url

CLEVELAND = LatLon(41.4993, -81.6944)

#: Dense generic, sparse generic and brand specs, plus a very dense one
#: so that most cells hold several POIs.
SPEC_MIX = [
    CATEGORY_SPECS["restaurant"],
    CATEGORY_SPECS["airport"],
    category_for_term("Starbucks", is_brand=True),
    CategorySpec("crowded", density_per_sq_mile=6.0),
]

#: (radius_miles, limit) of the production lookups: ranker candidates,
#: the 3-place Maps card, pagination's deep pool, the second engine.
PRODUCTION_LOOKUPS = [(2.5, 30), (6.0, 3), (5.0, 80), (3.5, 4)]


@pytest.fixture(scope="module")
def poi_db():
    grid = GeoGrid(1.0)
    metro = GeoGrid(8.0)
    return PoiDatabase(seed=1234, grid=grid, metro_grid=metro)


class TestNaming:
    def test_city_name_deterministic(self):
        assert city_name(GridCell(3, 4)) == city_name(GridCell(3, 4))

    def test_city_names_vary(self):
        names = {city_name(GridCell(i, 0)) for i in range(30)}
        assert len(names) > 5

    def test_business_name_deterministic(self):
        assert business_name("coffee", "Maplewood", 0) == business_name(
            "coffee", "Maplewood", 0
        )

    def test_business_name_contains_category_noun(self):
        name = business_name("coffee", "Maplewood", 1)
        assert "Coffee" in name


class TestCategorySpecs:
    def test_every_generic_local_term_has_spec(self):
        from repro.queries.local import LOCAL_GENERIC_TERMS
        from repro.web.urls import slugify

        for term in LOCAL_GENERIC_TERMS:
            assert slugify(term) in CATEGORY_SPECS, term

    def test_brand_spec_is_sparse_with_no_own_site(self):
        spec = category_for_term("Starbucks", is_brand=True)
        assert spec.own_site_rate == 0.0
        assert spec.density_per_sq_mile < CATEGORY_SPECS["school"].density_per_sq_mile

    def test_unknown_generic_term_gets_default(self):
        spec = category_for_term("Bowling Alley", is_brand=False)
        assert spec.density_per_sq_mile > 0

    def test_generic_density_exceeds_brand_density(self):
        # The density gap is what makes generic terms noisier (paper §3.1).
        generic = category_for_term("restaurant", is_brand=False)
        brand = category_for_term("kfc", is_brand=True)
        assert generic.density_per_sq_mile > brand.density_per_sq_mile


class TestPoiDatabase:
    def test_cell_generation_deterministic(self, poi_db):
        spec = CATEGORY_SPECS["school"]
        cell = poi_db.grid.cell_of(CLEVELAND)
        a = poi_db.pois_in_cell(spec, cell)
        b = poi_db.pois_in_cell(spec, cell)
        assert [p.poi_id for p in a] == [p.poi_id for p in b]

    def test_pois_positioned_inside_their_cell(self, poi_db):
        spec = CATEGORY_SPECS["school"]
        cell = poi_db.grid.cell_of(CLEVELAND)
        for poi in poi_db.pois_in_cell(spec, cell):
            assert poi_db.grid.cell_of(poi.location) == cell

    @settings(max_examples=150, deadline=None)
    @given(
        ix=st.integers(min_value=-8000, max_value=-3500),
        iy=st.integers(min_value=1700, max_value=3400),
        spec=st.sampled_from(SPEC_MIX),
        seed=st.integers(min_value=0, max_value=2**32),
        offset_x=st.floats(min_value=-9.0, max_value=9.0),
        offset_y=st.floats(min_value=-9.0, max_value=9.0),
    )
    def test_pois_stay_in_their_cell_across_cells_and_seeds(
        self, ix, iy, spec, seed, offset_x, offset_y
    ):
        # The nearest-first lookup stops on cell-rectangle bounds, so it
        # is exact only while no POI, once its lat/lon is projected
        # back, sits more than the epsilon outside its own cell.
        grid = GeoGrid(1.0)
        db = PoiDatabase(seed, grid, GeoGrid(8.0))
        cell = GridCell(ix, iy)
        x = (ix + 0.5 + offset_x) * grid.cell_miles
        y = (iy + 0.5 + offset_y) * grid.cell_miles
        point = grid.from_xy_miles(x, y)
        px, py = grid.to_xy_miles(point)
        bound = grid.rect_distance(px, py, ix, iy)
        for poi in db.pois_in_cell(spec, cell):
            assert grid.cell_of(poi.location) == cell
            qx, qy = grid.to_xy_miles(poi.location)
            assert grid.rect_distance(qx, qy, ix, iy) <= DISTANCE_EPSILON_MILES
            distance = grid.distance_miles(point, poi.location)
            assert distance >= bound - DISTANCE_EPSILON_MILES

    def test_density_drives_counts(self, poi_db):
        dense = CATEGORY_SPECS["restaurant"]
        sparse = CATEGORY_SPECS["airport"]
        dense_count = len(poi_db.pois_near(dense, CLEVELAND, 4.0))
        sparse_count = len(poi_db.pois_near(sparse, CLEVELAND, 4.0))
        assert dense_count > sparse_count

    def test_pois_near_respects_radius(self, poi_db):
        spec = CATEGORY_SPECS["school"]
        for poi in poi_db.pois_near(spec, CLEVELAND, 2.0):
            assert poi_db.grid.distance_miles(CLEVELAND, poi.location) <= 2.0

    def test_pois_near_sorted_by_distance(self, poi_db):
        spec = CATEGORY_SPECS["school"]
        pois = poi_db.pois_near(spec, CLEVELAND, 4.0)
        distances = [poi_db.grid.distance_miles(CLEVELAND, p.location) for p in pois]
        assert distances == sorted(distances)

    def test_limit_truncates(self, poi_db):
        spec = CATEGORY_SPECS["school"]
        assert len(poi_db.pois_near(spec, CLEVELAND, 4.0, limit=3)) == 3

    def test_seed_changes_layout(self):
        grid = GeoGrid(1.0)
        metro = GeoGrid(8.0)
        a = PoiDatabase(1, grid, metro).pois_near(
            CATEGORY_SPECS["school"], CLEVELAND, 2.0
        )
        b = PoiDatabase(2, grid, metro).pois_near(
            CATEGORY_SPECS["school"], CLEVELAND, 2.0
        )
        assert [p.poi_id for p in a] != [p.poi_id for p in b] or [
            p.location for p in a
        ] != [p.location for p in b]

    def test_poi_ids_unique_in_radius(self, poi_db):
        spec = CATEGORY_SPECS["coffee"]
        pois = poi_db.pois_near(spec, CLEVELAND, 4.0)
        ids = [p.poi_id for p in pois]
        assert len(set(ids)) == len(ids)

    def test_quality_near_spec_mean(self, poi_db):
        spec = CATEGORY_SPECS["school"]
        pois = poi_db.pois_near(spec, CLEVELAND, 6.0)
        assert pois, "expected schools near Cleveland"
        mean = sum(p.quality for p in pois) / len(pois)
        assert abs(mean - spec.quality_mean) < 0.5

    def test_own_site_rate_zero_yields_directory_urls(self, poi_db):
        spec = CategorySpec(
            name="polling-place-test",
            density_per_sq_mile=0.5,
            own_site_rate=0.0,
        )
        pois = poi_db.pois_near(spec, CLEVELAND, 3.0)
        assert pois
        assert all(p.url.host == "citydirectory.example.com" for p in pois)


class _PlacedPoiDatabase(PoiDatabase):
    """POIs at chosen spots, in cell widths from each holding cell's
    corner; a spot may lie outside the cell that holds it.

    ``spots`` maps a cell to its spots.  Without it every cell holds the
    lattice spots, a corner and two edge midpoints: their distances tie
    across mirror-image POIs and equal the bounds of the cells holding
    them, up to the rounding of the lat/lon round trip.
    """

    LATTICE = ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5))

    def __init__(self, spots=None):
        super().__init__(0, GeoGrid(1.0), GeoGrid(8.0))
        self.spots = spots

    def pois_in_cell(self, spec, cell):
        spots = self.LATTICE if self.spots is None else self.spots.get(cell, ())
        pois = []
        for index, (fx, fy) in enumerate(spots):
            location = self.grid.from_xy_miles(
                (cell.ix + fx) * self.grid.cell_miles,
                (cell.iy + fy) * self.grid.cell_miles,
            )
            pois.append(
                Poi(
                    poi_id=f"{spec.name}:{cell.ix}:{cell.iy}:{index}",
                    name=f"placed {index}",
                    category=spec.name,
                    location=location,
                    quality=7.0,
                    url=Url(host="placed.example.com", path="/"),
                    city="Placed",
                )
            )
        return pois


_ORACLE_DBS = [
    PoiDatabase(seed, GeoGrid(1.0), GeoGrid(8.0)) for seed in (1234, 98765)
]
_LATTICE_DB = _PlacedPoiDatabase()


def _ids(pois):
    return [poi.poi_id for poi in pois]


class TestNearestFirstLookup:
    """``pois_near`` against the full-scan oracle ``_pois_near_reference``."""

    def test_negative_limit_rejected(self, poi_db):
        with pytest.raises(ValueError):
            poi_db.pois_near(CATEGORY_SPECS["school"], CLEVELAND, 4.0, limit=-1)

    def test_zero_limit_is_empty(self, poi_db):
        assert poi_db.pois_near(CATEGORY_SPECS["school"], CLEVELAND, 4.0, limit=0) == []

    def test_negative_radius_rejected(self, poi_db):
        with pytest.raises(ValueError):
            poi_db.pois_near(CATEGORY_SPECS["school"], CLEVELAND, -1.0, limit=0)

    def test_limit_keeps_the_nearest(self, poi_db):
        spec = CATEGORY_SPECS["school"]
        everything = poi_db.pois_near(spec, CLEVELAND, 4.0)
        assert len(everything) > 3
        assert poi_db.pois_near(spec, CLEVELAND, 4.0, limit=3) == everything[:3]

    @settings(max_examples=200, deadline=None)
    @given(
        lat=st.floats(min_value=25.0, max_value=49.0),
        lon=st.floats(min_value=-124.0, max_value=-67.0),
        snap=st.booleans(),
        radius=st.floats(min_value=0.0, max_value=8.0),
        limit=st.none() | st.integers(min_value=0, max_value=40),
        spec=st.sampled_from(SPEC_MIX),
        db=st.sampled_from(_ORACLE_DBS),
    )
    def test_matches_full_scan(self, lat, lon, snap, radius, limit, spec, db):
        point = LatLon(lat, lon)
        if snap:
            point = db.grid.snap(point)
        assert _ids(db.pois_near(spec, point, radius, limit=limit)) == _ids(
            db._pois_near_reference(spec, point, radius, limit=limit)
        )

    @settings(max_examples=300, deadline=None)
    @given(
        ix=st.integers(min_value=-8000, max_value=-3500),
        iy=st.integers(min_value=1700, max_value=3400),
        fx=st.sampled_from([0.0, 0.25, 0.5, 0.75]),
        fy=st.sampled_from([0.0, 0.25, 0.5, 0.75]),
        radius=st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
        limit=st.integers(min_value=1, max_value=24),
    )
    def test_matches_full_scan_on_ties(self, ix, iy, fx, fy, radius, limit):
        db = _LATTICE_DB
        spec = CATEGORY_SPECS["school"]
        point = db.grid.from_xy_miles(
            (ix + fx) * db.grid.cell_miles, (iy + fy) * db.grid.cell_miles
        )
        assert _ids(db.pois_near(spec, point, radius, limit=limit)) == _ids(
            db._pois_near_reference(spec, point, radius, limit=limit)
        )

    def test_reads_a_poi_just_outside_its_cell(self):
        # From the centre of its cell, the point sees one POI half a
        # mile south, less a quarter epsilon, inside its own cell, and
        # one half a mile east, less half an epsilon, held by the east
        # neighbour but just outside it (as a lat/lon round trip can
        # leave a POI).  The east POI is the nearer, though its cell's
        # bound exceeds the south POI's distance.
        grid = GeoGrid(1.0)
        home = grid.cell_of(CLEVELAND)
        east = GridCell(home.ix + 1, home.iy)
        nudge = DISTANCE_EPSILON_MILES / 2
        db = _PlacedPoiDatabase({home: [(0.5, nudge / 2)], east: [(-nudge, 0.5)]})
        spec = CATEGORY_SPECS["school"]
        point = grid.from_xy_miles(home.ix + 0.5, home.iy + 0.5)
        nearest = db.pois_near(spec, point, 2.0, limit=1)
        assert _ids(nearest) == _ids(db._pois_near_reference(spec, point, 2.0, limit=1))
        assert _ids(nearest) == [f"school:{east.ix}:{east.iy}:0"]

    def test_production_lookups_match_full_scan(self):
        # Every paper-geography treatment location, snapped as the
        # engine snaps it, for every local query.
        snap_grid = GeoGrid(EngineCalibration().snap_cell_miles)
        locations = select_study_locations(0).all_locations()
        cells = sorted({snap_grid.snap(region.center) for region in locations})
        db = PoiDatabase(7, GeoGrid(1.0), GeoGrid(8.0))
        for query in local_queries():
            spec = category_for_term(query.text, is_brand=query.is_brand)
            for point in cells:
                for radius, limit in PRODUCTION_LOOKUPS:
                    assert _ids(db.pois_near(spec, point, radius, limit=limit)) == _ids(
                        db._pois_near_reference(spec, point, radius, limit=limit)
                    ), (query.text, point, radius, limit)

    def test_maps_lookup_reads_fewer_cells_than_the_disc(self):
        class CountingDatabase(PoiDatabase):
            def pois_in_cell(self, spec, cell):
                self.reads.append(cell)
                return super().pois_in_cell(spec, cell)

        db = CountingDatabase(1234, GeoGrid(1.0), GeoGrid(8.0))
        db.reads = []
        point = GeoGrid(EngineCalibration().snap_cell_miles).snap(CLEVELAND)
        places = db.pois_near(CATEGORY_SPECS["school"], point, 6.0, limit=3)
        assert len(places) == 3
        disc = db.grid.cells_within(point, 6.0)
        assert set(db.reads) <= set(disc)
        assert len(db.reads) < len(disc) // 3
