import math

import pytest

from discodet.config import (DEFAULT_CONFIG, ConfigError, dump_config, parse_config,
                             parse_config_text)


class TestDefaults:
    def test_empty_text_gives_reference_defaults(self):
        cfg = parse_config_text("")
        assert cfg["dris.elements_h"] * cfg["dris.elements_v"] == 2048
        assert cfg["detector.n_samples"] == 5
        assert cfg["detector.alpha"] == 0.05
        assert cfg["flow.epochs"] == 200
        assert cfg["flow.learning_rate"] == 2e-4
        assert cfg["flow.layers"] == 5
        assert cfg["fading.rician_g"] == 4.0
        assert tuple(cfg["dris.amplitudes"]) == (0.8, 1.0)

    def test_noise_power(self):
        assert DEFAULT_CONFIG.noise_power() == pytest.approx(1.8e-15, rel=1e-10)

    def test_default_profile_alpha_bar(self):
        from discodet.theory import alpha_bar
        assert abs(alpha_bar(DEFAULT_CONFIG.profile()) - 0.82) < 1e-12


class TestParsing:
    def test_override_and_comment(self):
        cfg = parse_config_text("# comment\nflow.epochs = 17  # trailing\n")
        assert cfg["flow.epochs"] == 17

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="2.*unknown key"):
            parse_config_text("\nnope.key = 1\n")

    @pytest.mark.parametrize("text", [
        "flow.enrichment = on", "flow.hidden = 64", "geometry.wavelength = 0",
        "geometry.wavelength = 0.0857", "geometry.element_spacing = 0"])
    def test_retired_key_is_unknown(self, text):
        # these were settings once; they are now unknown like any other key
        with pytest.raises(ConfigError, match="2.*unknown key"):
            parse_config_text(f"\n{text}\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("flow.epochs = 1\nflow.epochs = 2\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("flow.epochs = many")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_config_text("flow.epochs 5")

    def test_zero_elements_is_constraint_error(self):
        with pytest.raises(ConfigError):
            parse_config_text("dris.elements_h = 0")

    def test_samples_beyond_interval_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("detector.n_samples = 21")

    @pytest.mark.parametrize("text,match", [
        ("dris.probabilities = 0.6, 0.6", "sum to 1"),
        ("dris.probabilities = 1.5, -0.5", "non-negative"),
        ("dris.phases = 0, 1, 2\ndris.amplitudes = 1, 1, 1\n"
         "dris.probabilities = 0.5, 0.25, 0.25", "power of two"),
        ("dris.amplitudes = 0.8, 1.2", "amplitudes"),
        ("dris.phases = 0, 1, 2", "equal length"),
        ("fading.rician_g = -1", "fading: Rician"),
        ("fading.bandwidth_hz = 0", "fading.bandwidth_hz"),
        ("fading.rician_g = nan", "fading.rician_g must be finite"),
        ("geometry.bob_outer = nan", "geometry.bob_outer must be finite"),
        ("sweep.powers_dbm = -7, nan", "sweep.powers_dbm must be finite"),
        ("geometry.bob_inner = -5", "geometry: annulus radii"),
        ("sweep.samples = 1, 25", "sweep.samples"),
        ("sweep.samples = 0, 5", "sweep.samples"),
        ("sweep.elements = 0, -4", "sweep.elements"),
        ("detector.alpha = 0", "detector.alpha"),
        ("detector.alpha = 1", "detector.alpha"),
        ("detector.rho = 0", "detector.rho"),
        ("detector.rho = 1", "detector.rho"),
        ("geometry.alice = 0, 0", "geometry.alice must be a 3-D coordinate"),
        # Alice sits at (0, 0, 5) by default
        ("geometry.dris_center = 0, 0, 5", "geometry: alice and dris_center positions"),
        ("geometry.willie = 0, 0, 5", "geometry: alice and willie positions"),
        ("geometry.bob_center = 0, 0, 5", "geometry: alice and bob_center positions"),
        ("geometry.willie = -1.5, 0, 5", "geometry: dris_center and willie positions"),
        ("geometry.bob_center = -1.5, 0, 5",
         "geometry: dris_center and bob_center positions"),
    ])
    def test_bad_profile_rejected(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config_text(text)

    @pytest.mark.parametrize("key", ["detector.train_size", "detector.eval_size",
                                     "detector.n_threshold", "detector.n_samples",
                                     "flow.layers", "flow.epochs", "flow.batch_size",
                                     "flow.learning_rate", "sjnr.n_symbols"])
    def test_sizes_must_be_positive(self, key):
        with pytest.raises(ConfigError, match=key):
            parse_config_text(f"{key} = 0")
        assert parse_config_text(f"{key} = 1")[key] == 1

    @pytest.mark.parametrize("value,ok", [(-0.1, False), (0.0, True), (1.0, True),
                                          (1.5, False), (math.nan, False)])
    def test_mixture_is_a_fraction(self, value, ok):
        text = f"detector.mixture_h1 = {value}"
        if ok:
            assert parse_config_text(text)["detector.mixture_h1"] == value
        else:
            with pytest.raises(ConfigError, match="detector.mixture_h1"):
                parse_config_text(text)

    def test_bad_choice(self):
        with pytest.raises(ConfigError):
            parse_config_text("sjnr.bob_mode = somewhere")

    def test_file_roundtrip(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("flow.layers = 5\nsweep.fixed_p0_dbm = -7\n")
        cfg = parse_config(p)
        assert cfg["flow.layers"] == 5
        assert cfg["sweep.fixed_p0_dbm"] == -7.0


class TestDump:
    def test_roundtrip_identical(self):
        cfg = parse_config_text("flow.layers = 5\ndetector.rho = 0.35\n")
        text = dump_config(cfg)
        again = parse_config_text(text)
        assert again.values == cfg.values
        assert dump_config(again) == text

    def test_every_key_echoed(self):
        text = dump_config(DEFAULT_CONFIG)
        for key in ("detector.rho", "detector.mixture_h1", "seeds.root",
                    "fading.rician_g", "sweep.powers_dbm"):
            assert key + " = " in text


class TestElementCount:
    @pytest.mark.parametrize("n", [0, 1, 6, 256, 300, 512, 1024, 2048])
    def test_geometry_takes_count(self, n):
        assert DEFAULT_CONFIG.geometry(n).n_elements == n

    def test_negative(self):
        with pytest.raises(ValueError, match="element count must be non-negative"):
            DEFAULT_CONFIG.geometry(-1)


class TestBuilders:
    def test_scenario_power_conversion(self):
        scen = DEFAULT_CONFIG.scenario(5.0)
        assert scen.p0_watts == pytest.approx(10 ** (-2.5))
        assert scen.geometry.n_elements == 2048

    def test_scenario_element_override(self):
        scen = DEFAULT_CONFIG.scenario(5.0, n_elements=256)
        assert scen.geometry.n_elements == 256
        assert DEFAULT_CONFIG.scenario(5.0, n_elements=0).geometry.n_elements == 0

    def test_with_overrides(self):
        cfg = DEFAULT_CONFIG.with_overrides(detector__alpha=0.01)
        assert cfg["detector.alpha"] == 0.01
        with pytest.raises(ConfigError):
            DEFAULT_CONFIG.with_overrides(not__a__key=1)
        with pytest.raises(ConfigError):
            DEFAULT_CONFIG.with_overrides(detector__alpha=1.5)
