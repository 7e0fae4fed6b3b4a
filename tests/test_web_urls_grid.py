"""Tests for the URL model and the geographic grid."""

import pytest

from repro.geo.coords import LatLon
from repro.web.grid import GeoGrid, GridCell
from repro.web.urls import Url, slugify


class TestSlugify:
    def test_basic(self):
        assert slugify("Elementary School") == "elementary-school"

    def test_punctuation_squeezed(self):
        assert slugify("Wendy's!!") == "wendy-s"

    def test_leading_trailing_stripped(self):
        assert slugify("  Coffee  ") == "coffee"

    def test_numbers_kept(self):
        assert slugify("Route 66 Diner") == "route-66-diner"


class TestUrl:
    def test_parse_with_scheme(self):
        url = Url.parse("https://example.com/a/b")
        assert url.host == "example.com"
        assert url.path == "/a/b"

    def test_parse_without_scheme(self):
        assert Url.parse("example.com").path == "/"

    def test_host_lowercased(self):
        assert Url(host="Example.COM").host == "example.com"

    def test_malformed_host_rejected(self):
        with pytest.raises(ValueError):
            Url(host="not a host")
        with pytest.raises(ValueError):
            Url(host="nodots")

    def test_path_must_be_absolute(self):
        with pytest.raises(ValueError):
            Url(host="example.com", path="relative")

    def test_str_round_trip(self):
        url = Url(host="a.example.com", path="/x")
        assert str(url) == "https://a.example.com/x"
        assert Url.parse(str(url)) == url

    def test_domain_is_registrable_suffix(self):
        assert Url(host="www.shop.example.com").domain == "example.com"

    def test_urls_are_hashable_identities(self):
        assert len({Url(host="a.example.com"), Url(host="a.example.com")}) == 1


class TestGeoGrid:
    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            GeoGrid(0)

    def test_cell_of_is_stable(self):
        grid = GeoGrid(1.0)
        p = LatLon(41.43, -81.67)
        assert grid.cell_of(p) == grid.cell_of(p)

    def test_snap_is_idempotent(self):
        grid = GeoGrid(1.0)
        p = LatLon(41.43, -81.67)
        assert grid.snap(grid.snap(p)) == grid.snap(p)

    def test_snap_moves_less_than_cell_diagonal(self):
        grid = GeoGrid(1.0)
        p = LatLon(41.43, -81.67)
        assert grid.distance_miles(p, grid.snap(p)) <= 0.75  # half diagonal

    def test_nearby_points_share_cell(self):
        grid = GeoGrid(2.0)
        p = LatLon(41.430, -81.670)
        q = LatLon(41.4301, -81.6701)
        assert grid.cell_of(p) == grid.cell_of(q)

    def test_distant_points_differ(self):
        grid = GeoGrid(1.0)
        assert grid.cell_of(LatLon(41.43, -81.67)) != grid.cell_of(LatLon(39.96, -83.0))

    def test_projection_round_trip(self):
        grid = GeoGrid(1.0)
        p = LatLon(41.43, -81.67)
        x, y = grid.to_xy_miles(p)
        q = grid.from_xy_miles(x, y)
        assert q.lat == pytest.approx(p.lat, abs=1e-9)
        assert q.lon == pytest.approx(p.lon, abs=1e-9)

    def test_planar_distance_close_to_haversine_locally(self):
        grid = GeoGrid(1.0)
        a = LatLon(41.43, -81.67)
        b = LatLon(41.47, -81.60)
        assert grid.distance_miles(a, b) == pytest.approx(
            a.distance_miles(b), rel=0.05
        )

    def test_cells_within_zero_radius(self):
        grid = GeoGrid(1.0)
        p = LatLon(41.43, -81.67)
        cells = grid.cells_within(p, 0.0)
        assert grid.cell_of(p) in cells
        assert len(cells) == 1

    def test_cells_within_negative_radius_rejected(self):
        grid = GeoGrid(1.0)
        with pytest.raises(ValueError):
            grid.cells_within(LatLon(0, 0), -1.0)

    def test_cells_within_count_scales_with_radius(self):
        grid = GeoGrid(1.0)
        p = LatLon(41.43, -81.67)
        small = grid.cells_within(p, 1.0)
        large = grid.cells_within(p, 4.0)
        assert len(small) < len(large)
        # Disc of radius 4 covers roughly pi*16 = 50 cells plus boundary.
        assert 40 <= len(large) <= 80

    def test_cells_within_deterministic_order(self):
        grid = GeoGrid(1.0)
        p = LatLon(41.43, -81.67)
        assert grid.cells_within(p, 3.0) == grid.cells_within(p, 3.0)

    def test_cells_nearest_first_starts_at_own_cell(self):
        grid = GeoGrid(1.0)
        p = LatLon(41.43, -81.67)
        bound, cell = grid.cells_nearest_first(p, 3.0)[0]
        assert (bound, cell) == (0.0, grid.cell_of(p))

    def test_cells_nearest_first_negative_radius_rejected(self):
        grid = GeoGrid(1.0)
        with pytest.raises(ValueError):
            grid.cells_nearest_first(LatLon(0, 0), -1.0)

    def test_neighborhood_size(self):
        grid = GeoGrid(1.0)
        assert len(list(grid.iter_neighborhood(GridCell(0, 0), span=1))) == 9
        assert len(list(grid.iter_neighborhood(GridCell(0, 0), span=2))) == 25
