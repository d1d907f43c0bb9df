"""The benchmark in perfbench/ wraps package functions by name and reads some
of their arguments by position. Its own tests run outside this suite, so a
deleted or renamed hook target would otherwise pass here unnoticed."""

import importlib.util
import pathlib
import sys
import types

import pytest

from maskterm import autodiff, corpus, encoder as enc, masking as mk, tasks, training

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def harness(monkeypatch):
    """perfbench/harness.py, with the sibling modules it imports; those
    modules leave sys.modules, and perfbench/ sys.path, afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    loaded = set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_harness", PERFBENCH / "harness.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        for name in set(sys.modules) - loaded:
            if str(getattr(sys.modules[name], "__file__", None)).startswith(str(PERFBENCH)):
                del sys.modules[name]


@pytest.mark.parametrize("task,strategy,counter", [
    ("ate", "actm", "mask_positions"), ("asc", "actm", "mask_positions"),
    ("asc", "aam", "aam_rows"), ("asc", "amom", "amom_rounds"),
])
def test_install_layers_hooks_every_name_and_restores(harness, task, strategy, counter):
    import spans

    originals = (enc.encode, autodiff.multi_head_attention, mk.actm_threshold,
                 autodiff.ParamStore.l2_sum, training.batch_loss)
    rec = spans.SpanRecorder()
    harness.install_layers(rec, types.SimpleNamespace(maybe_probe=lambda: None))
    try:
        assert enc.encode is not originals[0]
        examples = corpus.synth_corpus(seed=2, size=6)
        config = training.TrainConfig(
            task=task, epochs=1, batch_size=4, mask=mk.MaskConfig(strategy=strategy),
            encoder=enc.EncoderConfig(d_w=4, d_p=2, hidden=8, n_layers=1, n_heads=2, d_ff=8))
        training.train(config, examples, examples)
    finally:
        rec.restore()
    assert (enc.encode, autodiff.multi_head_attention, mk.actm_threshold,
            autodiff.ParamStore.l2_sum, training.batch_loss) == originals
    for key in ("steps", "eval_instances", "graph_nodes", "encoder_rows", "forward_calls",
                counter):
        assert rec.counters[key] > 0, key
    # the harness reads batch_loss's batch by position
    instances = examples if task == "ate" else training.asc_instances(examples)
    assert rec.counters["train_instances"] == len(instances)
    # step_durations pairs each batch_loss span with the Adam step after it
    assert len(rec.named("training.adam_step")) == rec.counters["steps"]
    assert len(rec.named("autodiff.backward")) >= rec.counters["steps"]
    if strategy == "actm":   # masking.stage calls the threshold kernels through the wrappers
        for name in ("masking.token_attention", "masking.threshold", "masking.apply_mask"):
            assert rec.named(name), name
    if strategy == "aam":   # every AAM forward reads exactly the rows it encoded
        assert rec.counters["aam_rows"] == rec.counters["encoder_rows"]
    # every batch runs through amom_regenerate; only AMOM's count rounds and
    # masked tokens, so masking.amom_masked_per_round reads 0 for the rest
    assert rec.named("masking.amom_regenerate")
    if strategy != "amom":
        assert rec.counters["amom_rounds"] == rec.counters["amom_masked"] == 0
    # one embedding stage per forward, AMOM's remasked rounds included, so
    # that encoder.embed_tokens.ms_per_inst times one stage per forward
    assert len(rec.named("encoder.embed_tokens")) == rec.counters["forward_calls"]
    assert rec.named("encoder.attention") and rec.named("encoder.layer_norm")


@pytest.mark.parametrize("name", ["predict_bio", "predict_polarity", "forward_ate", "forward_asc"])
def test_model_methods_perfbench_patches_exist(name):
    """perfbench's own tests patch these model methods by name."""
    assert callable(getattr(tasks.AbsaModel, name, None))


@pytest.mark.parametrize("module,name", [(training, "asc_instances"), (tasks, "BIO_CLASSES"),
                                         (tasks, "ASC_CLASSES")])
def test_module_names_perfbench_reads_exist(module, name):
    """perfbench counts ASC instances with `training.asc_instances` and
    checks predicted labels against the class tuples."""
    assert hasattr(module, name)
