import pytest

import spans


def test_self_time_on_a_synthetic_span_tree():
    # a[0,10] > b[1,4] > c[2,3];  a[0,10] > b[5,9] > a[6,8]
    tree = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("a", 6.0, 8.0, 3),
    ]
    agg = spans.aggregate(tree)
    # self time subtracts direct children only
    assert agg["a"] == {"calls": 2, "s": 10.0, "self_s": (10 - 3 - 4) + 2}
    assert agg["b"] == {"calls": 2, "s": 7.0, "self_s": (3 - 1) + (4 - 2)}
    assert agg["c"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    # the nested "a" is inside an "a": inclusive time counts the outer one only
    total_self = sum(v["self_s"] for v in agg.values())
    assert total_self == pytest.approx(10.0)


def test_wrappers_cover_names_imported_elsewhere_and_are_removed():
    import hornfill
    from hornfill import cat, cli, kan, sset
    from hornfill.corpus import poset_category

    originals = (sset.enumerate_maps, kan.enumerate_maps, cli.classify, sset.LevelModel.__init__)
    tracer = spans.Tracer(hornfill)
    tracer.install()
    try:
        assert sset.enumerate_maps is not originals[0]
        assert kan.enumerate_maps is sset.enumerate_maps
        assert cli.classify is kan.classify is not originals[2]
        x = cat.nerve(poset_category(1), dim_cap=3).sset
        kan.classify(x, 3)
    finally:
        tracer.uninstall()
    assert (sset.enumerate_maps, kan.enumerate_maps, cli.classify,
            sset.LevelModel.__init__) == originals

    names = [s[0] for s in tracer.spans]
    assert names.count("kan.classify") == 1
    assert "sset.LevelModel" in names
    classify = names.index("kan.classify")
    maps = [s for s in tracer.spans if s[0] == "sset.enumerate_maps"]
    assert maps and all(s[3] == classify for s in maps)
    assert tracer.counts["sset.restrict.calls"] > 0
    assert tracer.counts["cat.simplices_built"] > 0

    layers = spans.layer_metrics(tracer, passes=1)
    assert layers["kan.classify.calls"] == (1, "count")
    assert layers["kan.horn_maps_classified"][0] == layers["sset.maps_returned"][0]
    assert 0 < layers["kan.lookups_per_restrict"][0]
    assert layers["groupoid.is_groupoid_object.calls"] == (0, "count")
