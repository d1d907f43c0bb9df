"""Two epochs of training on every task × strategy pair keep their bits: the
logged `train_loss` of each epoch, the parameters and the evaluation report.

Two settings cover the ways a training step can run. At batch 8 no forward
reaches `tasks.SPLIT_ROWS`, so every batch runs whole. At batch 32 with
SPLIT_ROWS lowered to 300, every batch of 32 packs more rows than that, so
it runs as two halves and walks its loss's nodes on two threads. Evaluation
streams its chunks in both. A change that claims to keep the arithmetic
must leave this table as it is."""

import hashlib

import pytest

from maskterm import corpus
from maskterm import masking as mk
from maskterm import tasks
from maskterm import training

# (batch size, SPLIT_ROWS or None for the default, task, strategy) -> the
# train_loss of epochs 0 and 1 as float.hex, then the sha256 of the
# parameters' bytes in store order and that of the final report's JSON, both
# cut to 16 hex digits.
PINS = {
    (8, None, "ate", "actm"):
        ("0x1.7b61c4999999ap+2", "0x1.8db5eb3333333p+0", "ed3547a455cf5f41", "25ce3d6213d05f9e"),
    (8, None, "ate", "aam"):
        ("0x1.be18aeccccccdp+2", "0x1.b96e080000000p+1", "46936d91586afab4", "7bf312a92cc9b858"),
    (8, None, "ate", "amom"):
        ("0x1.9ab6fb999999ap+2", "0x1.53d874ccccccdp+1", "58e3c267207484e5", "f091d8a8fd384d4e"),
    (8, None, "ate", "fixed"):
        ("0x1.7b61c4999999ap+2", "0x1.c41a906666666p+0", "54c8ad18bcb6b032", "686e967eade24706"),
    (8, None, "ate", "none"):
        ("0x1.7b764c6666666p+2", "0x1.8e5579999999ap+0", "febf03beb0ab5e6b", "25ce3d6213d05f9e"),
    (8, None, "asc", "actm"):
        ("0x1.9423c885ac228p+4", "0x1.880274c6e6cdbp+4", "8346f70a03f99e00", "2173df5e88de3ba8"),
    (8, None, "asc", "aam"):
        ("0x1.9306e1f70c1a3p+4", "0x1.879a78e8800a8p+4", "b6adbbc36793c340", "6083bb2efb4ba838"),
    (8, None, "asc", "amom"):
        ("0x1.922b398bc26edp+4", "0x1.8607e4b9a56aap+4", "a670f2d83357d365", "6083bb2efb4ba838"),
    (8, None, "asc", "fixed"):
        ("0x1.929238f98db3ep+4", "0x1.871174d866694p+4", "2c060cb1595f5101", "c783548a007ea8c4"),
    (8, None, "asc", "none"):
        ("0x1.92915b3fb8325p+4", "0x1.8710fb9a393c7p+4", "e674d15bc73860dd", "409bae38d0bd0858"),
    (32, 300, "ate", "actm"):
        ("0x1.0e5e843333333p+3", "0x1.74deed999999ap+2", "f33cb601c26d6a63", "3df21ae1b0e5a63e"),
    (32, 300, "ate", "aam"):
        ("0x1.0ed418999999ap+3", "0x1.badc366666666p+2", "a6b4c130429a1491", "0c89ba3a3aa9fd47"),
    (32, 300, "ate", "amom"):
        ("0x1.0fc83c0000000p+3", "0x1.84697d3333333p+2", "4a7210cf68abc213", "31bc4147da03c67b"),
    (32, 300, "ate", "fixed"):
        ("0x1.0e5e843333333p+3", "0x1.74deed999999ap+2", "aac212c0ce83e148", "3df21ae1b0e5a63e"),
    (32, 300, "ate", "none"):
        ("0x1.0e5e843333333p+3", "0x1.74e5960000000p+2", "239942257a284ec9", "3df21ae1b0e5a63e"),
    (32, 300, "asc", "actm"):
        ("0x1.96f42ec6605b4p+4", "0x1.9434fea4b73a6p+4", "db30f3c400b11bcd", "6bec849276dd3cc2"),
    (32, 300, "asc", "aam"):
        ("0x1.95c0cda110107p+4", "0x1.9130bcadcd65ap+4", "daeb09b9ac4e304d", "dea85f831ef8b354"),
    (32, 300, "asc", "amom"):
        ("0x1.9552895cd1784p+4", "0x1.91122d0558475p+4", "d01402fb0f7a17bf", "6bec849276dd3cc2"),
    (32, 300, "asc", "fixed"):
        ("0x1.954790c14f9f3p+4", "0x1.91c5a7acb0519p+4", "737e4c2c5a649b14", "f1e96c22e45ae0db"),
    (32, 300, "asc", "none"):
        ("0x1.954790c14f9f3p+4", "0x1.91c5a1926de2cp+4", "eb71dfcf8d8bf954", "f1e96c22e45ae0db"),
}


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


@pytest.fixture(scope="module")
def data():
    return corpus.synth_corpus(0, 40), corpus.synth_corpus(1, 40)


@pytest.mark.parametrize("batch,split_rows,task,strategy", list(PINS),
                         ids=lambda v: str(v) if v is not None else "default")
def test_two_epochs_train_to_the_pinned_bits(monkeypatch, data, batch, split_rows, task, strategy):
    if split_rows is not None:
        monkeypatch.setattr(tasks, "SPLIT_ROWS", split_rows)
    config = training.TrainConfig(task=task, epochs=2, batch_size=batch, learning_rate=3e-3, seed=3,
                                  mask=mk.MaskConfig(strategy=strategy))
    model, log = training.train(config, *data)
    got = (*(float(r["train_loss"]).hex() for r in log.records),
           digest(t.data.tobytes() for t in model.params.tensors()),
           digest([log.final_report.to_json().encode()]))
    assert got == PINS[batch, split_rows, task, strategy]
