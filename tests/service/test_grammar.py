"""The campaign grammar as data: field tables, the two walks, path-addressed
errors, canonical dumps and the ids the service resumes on."""

import dataclasses
import json
import pathlib
import string

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.params import (
    AtomicMode,
    ConsistencyKind,
    DetectionMode,
    PredictorKind,
)
from repro.service import planner
from repro.service.schema import (
    BASE_PRESETS,
    OUTPUT_KINDS,
    UNSET,
    Campaign,
    CampaignError,
    ConfigSpec,
    GridSpec,
    OutputSpec,
    WorkloadSpec,
    as_workload_spec,
    campaign_payload,
    default_campaign_dir,
    describe_grammar,
    dump_campaign,
    load_campaign,
    loads_campaign,
    parse_campaign,
    to_payload,
)
from repro.workloads.litmus_oracle import LITMUS_TESTS
from repro.workloads.microbench import MACHINE_PARAMS, VARIANTS
from repro.workloads.profiles import WORKLOADS, get_profile

RECORDS = (Campaign, GridSpec, WorkloadSpec, ConfigSpec, OutputSpec)
IDS_FILE = pathlib.Path(__file__).with_name("campaign_ids.json")
DOCS = pathlib.Path(__file__).resolve().parents[2] / "docs" / "service.md"

GRID = (
    "campaign: 1\nname: t\ngrids:\n  - workloads: [fmm]\n    configs:\n"
    "      - {name: e, mode: eager}\n"
)
MICRO = "campaign: 1\nname: m\nkind: microbench\nops: [faa]\nvariants: [lock]\n"


def config(extra: str) -> str:
    return GRID.replace("{name: e, mode: eager}", "{name: e, mode: eager, %s}" % extra)


def committed():
    paths = sorted(default_campaign_dir().glob("*.yaml"))
    assert paths
    return paths


class TestFieldTables:
    def test_every_key_is_an_attribute_and_only_profile_is_in_memory(self):
        in_memory = set()
        for cls in RECORDS:
            keys = [f.key for f in cls.FIELDS]
            attrs = [f.name for f in dataclasses.fields(cls)]
            assert len(set(keys)) == len(keys), cls
            assert set(keys) <= set(attrs), cls
            in_memory |= {(cls.__name__, a) for a in attrs if a not in keys}
        assert in_memory == {("WorkloadSpec", "profile")}

    def test_kind_precedes_every_kind_limited_key(self):
        keys = [f.key for f in Campaign.FIELDS]
        for f in Campaign.FIELDS:
            if f.kinds:
                assert keys.index("kind") < keys.index(f.key), f.key

    def test_docs_carry_the_rendered_tables(self):
        text = DOCS.read_text()
        block = text.split("<!-- grammar:begin -->\n")[1].split("<!-- grammar:end -->")[0]
        assert block == describe_grammar()


BAD = [
    # (document, exact path the error names, message fragment)
    (config("forwarding: 'no'"), "<campaign>.grids[0].configs[0].forwarding",
     "must be true or false"),
    (config("latency_threshold: true"),
     "<campaign>.grids[0].configs[0].latency_threshold", "integer or null"),
    (config("mode: warp").replace("mode: eager, ", ""),
     "<campaign>.grids[0].configs[0].mode", "unknown atomic mode 'warp'"),
    (config("detection: psychic"), "<campaign>.grids[0].configs[0].detection",
     "unknown detection 'psychic'"),
    (config("params: {warp: 1}"), "<campaign>.grids[0].configs[0].params",
     "unknown field(s) warp"),
    (MICRO + "machines: new-x86\n", "<campaign>.machines",
     "must be a non-empty list"),
    (MICRO + "machines: [z80]\n", "<campaign>.machines[0]", "unknown machine 'z80'"),
    (MICRO + "machines: [new-x86]\niterations: {smoke: x}\n",
     "<campaign>.iterations.smoke", "must be an integer"),
    (GRID.replace("name: t", "name: [a, b]"), "<campaign>.name", "must be a string"),
    (GRID + "    seeds: [true]\n", "<campaign>.grids[0].seeds[0]", "must be an integer"),
    (GRID + "    num_threads: 0\n", "<campaign>.grids[0].num_threads",
     "must be a positive integer"),
    (GRID.replace("[fmm]", "[{base: nosuch}]"),
     "<campaign>.grids[0].workloads[0].base", "unknown workload 'nosuch'"),
    (GRID + "      - {name: e, mode: lazy}\n", "<campaign>.grids[0].configs",
     "duplicate name(s) e"),
    (GRID + "output: {kind: movie, id: x}\n", "<campaign>.output.kind",
     "unknown output kind 'movie'"),
    (GRID + "output: {kind: figure}\n", "<campaign>.output",
     "output kind 'figure' requires an id"),
    ("campaign: 1\nname: l\nkind: litmus\nconfigs: []\n", "<campaign>",
     "configs is only valid for kind: grid"),
    ("campaign: 1\nname: l\nkind: litmus\nmachines: [new-x86]\n", "<campaign>",
     "machines is only valid for kind: microbench"),
    ("campaign: 1\nname: l\nkind: litmus\nmodels: [sc]\n", "<campaign>.models[0]",
     "unknown consistency model 'sc'"),
    # A microbenchmark runs on its machine models, a litmus shape on the
    # quick machine at every scale: base:/scale: there would move the
    # campaign_id without moving a cell.
    (MICRO + "machines: [new-x86]\nbase: paper\n", "<campaign>",
     "base is only valid for kind: grid"),
    ("campaign: 1\nname: l\nkind: litmus\nscale: smoke\n", "<campaign>",
     "scale is only valid for kind: grid or microbench"),
    ("campaign: 1\nname: t\n", "<campaign>", "missing required field 'grids'"),
]


class TestPathAddressedErrors:
    @pytest.mark.parametrize(
        "text,path,fragment", BAD, ids=[f"{i}-{b[1]}" for i, b in enumerate(BAD)]
    )
    def test_error_names_the_offending_value(self, text, path, fragment):
        with pytest.raises(CampaignError) as info:
            loads_campaign(text)
        message = str(info.value)
        # The path is the whole subject: "<path>: ..." or "<path> must be ...".
        assert message.startswith(path) and message[len(path)] in ": "
        assert fragment in message

    def test_a_string_axis_is_not_split_into_characters(self):
        # Used to iterate "new-x86" and report "unknown machine 'n'".
        with pytest.raises(CampaignError) as info:
            loads_campaign(MICRO + "machines: new-x86\n")
        assert "'n'" not in str(info.value)


class TestCanonicalDump:
    def test_output_id_survives_kind_none(self):
        campaign = loads_campaign(GRID + "output: {id: fig1}\n")
        assert campaign.output == OutputSpec(kind="none", id="fig1")
        assert loads_campaign(dump_campaign(campaign)) == campaign

    def test_bare_workload_dumps_bare_and_defaults_are_omitted(self):
        payload = campaign_payload(loads_campaign(GRID))
        assert payload == {
            "campaign": 1,
            "name": "t",
            "grids": [{"workloads": ["fmm"], "configs": [{"name": "e", "mode": "eager"}]}],
        }

    def test_in_memory_profile_cannot_be_dumped(self):
        spec = as_workload_spec(get_profile("fmm").with_overrides(name="hot"))
        with pytest.raises(CampaignError, match="in-memory field.*profile"):
            to_payload(spec)

    def test_mappings_dump_in_key_order(self):
        spec = ConfigSpec(name="c", mode="eager", params={"sb_entries": 4, "aq_entries": 2})
        assert list(to_payload(spec)["params"]) == ["aq_entries", "sb_entries"]


class TestCommittedSpecs:
    def test_campaign_ids_are_those_recorded(self):
        # The service dedups and resumes on these: a grammar change that
        # moves one orphans every persisted campaign.
        recorded = json.loads(IDS_FILE.read_text())
        assert set(recorded) == {p.stem for p in committed()}
        for path in committed():
            campaign = load_campaign(path)
            for scale, cid in recorded[path.stem].items():
                assert planner.campaign_id(campaign, scale) == cid, (path.stem, scale)

    def test_a_litmus_id_folds_no_scale(self):
        # Every scale expands a litmus sweep to the same cells, so one
        # submission at each must be one service campaign.
        campaign = load_campaign(default_campaign_dir() / "litmus.yaml")
        ids = {planner.campaign_id(campaign, scale) for scale in ("smoke", "quick")}
        assert len(ids) == 1
        with pytest.raises(ValueError):
            planner.campaign_id(campaign, "no-such-scale")

    def test_table1_paper_grid_campaign_still_loads(self):
        # Table I's campaign is in memory: a grid campaign whose only key
        # is base: paper, which stays valid on a grid.
        from repro.analysis.figures import load_table_campaign, render

        campaign = load_table_campaign("table1")
        assert (campaign.kind, campaign.base) == ("grid", "paper")
        assert render(campaign, "smoke").rows[0] == ["cores", 32]

    def test_c_and_python_yaml_loaders_agree(self):
        if not hasattr(yaml, "CSafeLoader"):
            pytest.skip("pyyaml built without libyaml")
        for path in committed():
            text = path.read_text()
            assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.safe_load(text)

    def test_json_persisted_form_parses_back(self):
        # The fabric persists campaign_payload() as JSON and resumes from it.
        for path in committed():
            campaign = load_campaign(path)
            again = parse_campaign(json.loads(json.dumps(campaign_payload(campaign))))
            assert again == campaign, path.stem


# -- generated campaigns -----------------------------------------------------

names = st.text(string.ascii_lowercase + "-_", min_size=1, max_size=6)


def maybe(strategy):
    return st.none() | strategy


configs = st.builds(
    ConfigSpec,
    name=names,
    mode=st.sampled_from([m.value for m in AtomicMode]),
    detection=maybe(st.sampled_from([d.value for d in DetectionMode])),
    predictor=maybe(st.sampled_from([p.value for p in PredictorKind])),
    forwarding=st.booleans(),
    latency_threshold=st.sampled_from([UNSET, None]) | st.integers(0, 5000),
    consistency=maybe(st.sampled_from([k.value for k in ConsistencyKind])),
    params=st.fixed_dictionaries(
        {}, optional={"aq_entries": st.integers(1, 64), "sb_entries": st.integers(1, 64)}
    ),
    row=st.fixed_dictionaries({}, optional={"predictor_entries": st.integers(1, 256)}),
)
workloads = st.builds(
    WorkloadSpec,
    base=st.sampled_from(sorted(WORKLOADS)),
    name=maybe(names),
    overrides=st.fixed_dictionaries(
        {}, optional={"hot_fraction": st.floats(0, 1), "num_hot_lines": st.integers(1, 8)}
    ),
)
grids = st.builds(
    GridSpec,
    workloads=st.lists(workloads, min_size=1, max_size=3).map(tuple),
    configs=st.lists(configs, min_size=1, max_size=3, unique_by=lambda c: c.name).map(tuple),
    seeds=maybe(st.lists(st.integers(0, 9), min_size=1, max_size=3).map(tuple)),
    num_threads=maybe(st.integers(1, 16)),
    instructions_per_thread=maybe(st.integers(1, 5000)),
)
outputs = st.builds(
    OutputSpec, kind=st.sampled_from(OUTPUT_KINDS), id=maybe(names)
).filter(lambda o: o.problem() is None)
scales = st.sampled_from(["smoke", "quick", "full", "paper"])
common = dict(
    name=names,
    description=st.sampled_from(["", "a sweep", "12"]),
    output=outputs,
)


def axis(values):
    return st.lists(st.sampled_from(sorted(values)), min_size=1, max_size=3).map(tuple)


campaigns = (
    st.builds(Campaign, kind=st.just("grid"),
              grids=st.lists(grids, min_size=1, max_size=2).map(tuple),
              scale=maybe(scales), base=st.sampled_from(BASE_PRESETS), **common)
    | st.builds(Campaign, kind=st.just("microbench"), scale=maybe(scales),
                machines=axis(MACHINE_PARAMS),
                ops=axis(["faa", "cas", "swap"]), variants=axis(VARIANTS),
                iterations=maybe(st.integers(1, 100) | st.dictionaries(scales, st.integers(1, 100))),
                **common)
    | st.builds(Campaign, kind=st.just("litmus"), programs=axis(LITMUS_TESTS),
                models=axis([k.value for k in ConsistencyKind]), **common)
)


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(campaigns)
    def test_dump_then_parse_is_the_identity(self, campaign):
        payload = campaign_payload(campaign)
        assert parse_campaign(payload) == campaign
        assert parse_campaign(json.loads(json.dumps(payload))) == campaign
        again = loads_campaign(dump_campaign(campaign))
        assert again == campaign
        assert campaign_payload(again) == payload
        if campaign.kind == "grid":
            assert planner.campaign_id(again, "smoke") == planner.campaign_id(campaign, "smoke")
