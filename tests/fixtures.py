"""Shared XML fixtures for ingestion tests, with hand-counted expectations,
`run_python` for the tests that need a fresh process, `finishes` for those
that must fail rather than hang, `record_joins` and `serial_backward` for
the tests that read the parts a loss joins and check its backward, and
`packed_input` for the tests that read a batch's mask decision through
`AbsaModel.encode_and_mask`."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import maskterm
from maskterm import autodiff as ad
from maskterm import encoder as enc


def run_python(script: str, **env: str) -> str:
    """The stdout of `script`, run by this interpreter in a new process that
    imports this checkout's `maskterm`, with `env` added to the environment."""
    src = str(Path(maskterm.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src, **env),
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stdout


def finishes(target, timeout: float = 60.0) -> bool:
    """Whether `target()` returns within `timeout` seconds on a helper
    thread, so that a call stuck on the worker of `autodiff.streams` fails its
    test. A stuck worker's queue is then cancelled, which frees it, and a
    new worker takes its place, so the suite neither hangs nor goes on
    without one."""
    helper = threading.Thread(target=target, daemon=True)
    helper.start()
    helper.join(timeout=timeout)
    if not helper.is_alive():
        return True
    ad._WORKER.shutdown(wait=False, cancel_futures=True)
    ad._new_worker()
    return False


def record_joins(monkeypatch) -> list:
    """The parts of every `autodiff.join` from now on, one list per join."""
    join, joins = ad.join, []
    monkeypatch.setattr(ad, "join", lambda parts, leaves: joins.append(list(parts))
                        or join(parts, leaves))
    return joins


def serial_backward(parts) -> dict:
    """{leaf: gradient} of each part's own `autodiff.backward`, walked on
    this thread, with each leaf's gradients added in part order: the
    reference for a join's backward."""
    grads = {}
    for part in parts:
        for leaf, g in ad.backward(part).items():
            grads[leaf] = grads[leaf] + g if leaf in grads else g
    return grads


def packed_input(model, items):
    """The packed input `model`'s forward builds for `items`: examples for
    ATE, (example, aspect index) instances for ASC."""
    if model.task == "ate":
        return enc.pack_inputs(model.vocab, items)
    return enc.pack_inputs(model.vocab, [ex for ex, _ in items], [i for _, i in items])

# Two sentences, three aspect terms: positive x2, negative x1.
SEM14_FIXTURE = """<?xml version="1.0" encoding="UTF-8"?>
<sentences>
  <sentence id="1">
    <text>the steak was great but the service was slow.</text>
    <aspectTerms>
      <aspectTerm term="steak" polarity="positive" from="4" to="9"/>
      <aspectTerm term="service" polarity="negative" from="28" to="35"/>
    </aspectTerms>
  </sentence>
  <sentence id="2">
    <text>amazing wine list.</text>
    <aspectTerms>
      <aspectTerm term="wine list" polarity="positive" from="8" to="17"/>
    </aspectTerms>
  </sentence>
</sentences>
"""

# One extra term with the out-of-scope "conflict" polarity.
SEM14_CONFLICT_FIXTURE = """<?xml version="1.0" encoding="UTF-8"?>
<sentences>
  <sentence id="1">
    <text>the pasta was tasty but pricey.</text>
    <aspectTerms>
      <aspectTerm term="pasta" polarity="conflict" from="4" to="9"/>
    </aspectTerms>
  </sentence>
</sentences>
"""

SEM14_NO_ASPECTS_FIXTURE = """<?xml version="1.0" encoding="UTF-8"?>
<sentences>
  <sentence id="1">
    <text>we arrived at noon.</text>
  </sentence>
</sentences>
"""

# Two reviews, three opinions (one NULL target dropped): positive, negative, neutral.
SEM16_FIXTURE = """<?xml version="1.0" encoding="UTF-8"?>
<Reviews>
  <Review rid="r1">
    <sentences>
      <sentence id="r1:1">
        <text>the keyboard was wonderful.</text>
        <Opinions>
          <Opinion target="keyboard" polarity="positive" from="4" to="12"/>
        </Opinions>
      </sentence>
      <sentence id="r1:2">
        <text>battery life was awful.</text>
        <Opinions>
          <Opinion target="battery life" polarity="negative" from="0" to="12"/>
          <Opinion target="NULL" polarity="negative" from="0" to="0"/>
        </Opinions>
      </sentence>
    </sentences>
  </Review>
  <Review rid="r2">
    <sentences>
      <sentence id="r2:1">
        <text>the screen was average.</text>
        <Opinions>
          <Opinion target="screen" polarity="neutral" from="4" to="10"/>
        </Opinions>
      </sentence>
    </sentences>
  </Review>
</Reviews>
"""

MALFORMED_FIXTURE = "<sentences><sentence><text>broken"

MISSING_ATTR_FIXTURE = """<sentences>
  <sentence id="1">
    <text>the soup was cold.</text>
    <aspectTerms>
      <aspectTerm term="soup" polarity="negative" from="4"/>
    </aspectTerms>
  </sentence>
</sentences>
"""
