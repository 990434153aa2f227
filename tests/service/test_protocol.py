"""Protocol-layer unit tests: canonical JSON, request validation, the
resource catalog."""

import json
import math

import pytest

from repro.errors import ServiceError
from repro.service.protocol import (DEFAULT_LIBRARY, DEFAULT_PLATFORM,
                                    MapRequest, ServiceCatalog,
                                    SweepRequest, canonical_json,
                                    parse_json_body)


class TestCanonicalJson:
    def test_sorted_compact_bytes(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == b'{"a":[2,3],"b":1}'

    def test_key_order_independence(self):
        one = canonical_json({"x": 1, "y": {"b": 2, "a": 3}})
        two = canonical_json({"y": {"a": 3, "b": 2}, "x": 1})
        assert one == two

    def test_floats_repr_exact(self):
        payload = json.loads(canonical_json({"v": 0.1}))
        assert payload["v"] == 0.1

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonical_json({"v": math.inf})

    def test_parse_json_body_errors(self):
        with pytest.raises(ServiceError) as err:
            parse_json_body(b"{not json")
        assert err.value.status == 400
        with pytest.raises(ServiceError):
            parse_json_body(b"")


class TestMapRequest:
    def test_defaults(self):
        request = MapRequest.from_payload({"block": "inv_mdctL"})
        assert request.library == DEFAULT_LIBRARY
        assert request.platform == DEFAULT_PLATFORM
        assert request.tolerance == 1e-6
        assert math.isinf(request.accuracy_budget)

    def test_payload_roundtrip(self):
        request = MapRequest(block="inv_mdctL", library=("REF", "IH"),
                             platform="DSP", tolerance=1e-4,
                             accuracy_budget=1e-3)
        assert MapRequest.from_payload(request.to_payload()) == request

    def test_default_payload_is_minimal(self):
        assert MapRequest(block="b").to_payload() == {"block": "b"}

    @pytest.mark.parametrize("payload", [
        [],                                       # not an object
        {},                                       # missing block
        {"block": ""},                            # empty block
        {"block": 3},                             # wrong type
        {"block": "b", "library": []},            # empty library
        {"block": "b", "library": "REF"},         # not a list
        {"block": "b", "tolerance": "tight"},     # non-numeric knob
        {"block": "b", "tolerance": True},        # bool is not a number
        {"block": "b", "workers": 4},             # unknown field
    ])
    def test_rejects_malformed(self, payload):
        with pytest.raises(ServiceError) as err:
            MapRequest.from_payload(payload)
        assert err.value.status == 400


class TestAccuracyBudgetValidation:
    """Negative budgets are rejected with one shared message — the CLI
    argparse error and the service 400 must read identically."""

    @pytest.mark.parametrize("budget", [-1, -1e-9, math.nan])
    def test_map_request_rejects(self, budget):
        from repro.api.types import ACCURACY_BUDGET_MESSAGE

        with pytest.raises(ServiceError) as err:
            MapRequest.from_payload(
                {"block": "b", "accuracy_budget": budget})
        assert err.value.status == 400
        assert str(err.value) == ACCURACY_BUDGET_MESSAGE

    @pytest.mark.parametrize("budget", [-1, -1e-9, math.nan])
    def test_sweep_request_rejects(self, budget):
        from repro.api.types import ACCURACY_BUDGET_MESSAGE

        with pytest.raises(ServiceError) as err:
            SweepRequest.from_payload({"accuracy_budget": budget})
        assert err.value.status == 400
        assert str(err.value) == ACCURACY_BUDGET_MESSAGE

    def test_zero_budget_is_valid(self):
        assert MapRequest.from_payload(
            {"block": "b", "accuracy_budget": 0}).accuracy_budget == 0.0


class TestToleranceValidation:
    """A NaN or infinite tolerance accepts every coefficient, so the
    cheapest element of any shape would "match"; such requests are
    refused with the one message the CLI shares."""

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -1e-9])
    def test_map_request_rejects(self, tolerance):
        from repro.api.types import TOLERANCE_MESSAGE

        with pytest.raises(ServiceError) as err:
            MapRequest.from_payload({"block": "b", "tolerance": tolerance})
        assert err.value.status == 400
        assert str(err.value) == TOLERANCE_MESSAGE

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -1e-9])
    def test_sweep_request_rejects(self, tolerance):
        from repro.api.types import TOLERANCE_MESSAGE

        with pytest.raises(ServiceError) as err:
            SweepRequest.from_payload({"tolerance": tolerance})
        assert err.value.status == 400
        assert str(err.value) == TOLERANCE_MESSAGE

    @pytest.mark.parametrize("tolerance", [0, 0.0, 1e-3, 5])
    def test_finite_nonnegative_is_valid(self, tolerance):
        request = MapRequest.from_payload({"block": "b", "tolerance": tolerance})
        assert request.tolerance == float(tolerance)


class TestSweepRequest:
    def test_defaults_mean_everything(self):
        request = SweepRequest.from_payload({})
        assert request.platforms is None
        assert request.libraries is None
        assert request.blocks is None

    def test_payload_roundtrip(self):
        request = SweepRequest(platforms=("SA-1110", "DSP"),
                               libraries=("REF+LM", "REF+LM+IH"),
                               blocks=("inv_mdctL",), tolerance=1e-5)
        assert SweepRequest.from_payload(request.to_payload()) == request

    def test_rejects_unknown_field(self):
        with pytest.raises(ServiceError) as err:
            SweepRequest.from_payload({"platform": "SA-1110"})
        assert err.value.status == 400

    @pytest.mark.parametrize("payload", [
        {"platforms": ["SA-1110", "SA-1110"]},
        {"libraries": ["REF+LM", "REF+LM"]},
        {"blocks": ["inv_mdctL", "inv_mdctL"]},
    ])
    def test_rejects_duplicate_list_entries(self, payload):
        with pytest.raises(ServiceError) as err:
            SweepRequest.from_payload(payload)
        assert err.value.status == 400


class TestServiceCatalog:
    def test_blocks_memoized(self):
        catalog = ServiceCatalog()
        assert catalog.block("inv_mdctL") is catalog.block("inv_mdctL")
        assert sorted(catalog.blocks()) == ["SubBandSynthesis",
                                           "inv_mdctL"]

    def test_unknown_block_404(self):
        with pytest.raises(ServiceError) as err:
            ServiceCatalog().block("fft_radix2")
        assert err.value.status == 404

    def test_library_memoized_and_unioned(self):
        catalog = ServiceCatalog()
        library = catalog.library(("REF", "IH"))
        assert library is catalog.library(("REF", "IH"))
        assert {e.library for e in library} == {"REF", "IH"}
        assert catalog.library_combo("REF+IH") is library

    def test_unknown_library_tag_404(self):
        with pytest.raises(ServiceError) as err:
            ServiceCatalog().library(("REF", "MKL"))
        assert err.value.status == 404

    def test_duplicate_library_tag_400(self):
        with pytest.raises(ServiceError) as err:
            ServiceCatalog().library(("REF", "REF"))
        assert err.value.status == 400

    def test_platform_memoized(self):
        catalog = ServiceCatalog()
        assert catalog.platform("DSP") is catalog.platform("DSP")

    def test_unknown_platform_404(self):
        with pytest.raises(ServiceError) as err:
            ServiceCatalog().platform("Z80")
        assert err.value.status == 404

    def test_platform_keys_default_is_registry_order(self):
        keys = ServiceCatalog().platform_keys(None)
        assert keys[0] == "SA-1110"
        assert len(keys) >= 4
