"""Shared fixtures: synthetic waveforms and annotation texts used across suites."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from prosotime import Waveform, synthesize_am, write_wav_pcm16


@pytest.fixture(params=[1, 7, 40])
def small_blocks(request, monkeypatch):
    """open_wav's samples per block, which the peak picker's passes follow, cut to a few."""
    monkeypatch.setattr(importlib.import_module("prosotime.audio"), "_BLOCK_FRAMES", request.param)
    return request.param


@pytest.fixture(scope="session")
def annotation_memory():
    """tools/annotation_memory.py, loaded once: its tier writer and its child-RSS launcher."""
    spec = importlib.util.spec_from_file_location(
        "annotation_memory", Path(__file__).resolve().parents[1] / "tools" / "annotation_memory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def am_wave():
    """2 s of a 200 Hz carrier fully modulated at 5 Hz (the calibration signal)."""
    return synthesize_am(200.0, 5.0, 1.0, 2.0, 16000)


@pytest.fixture
def sine_200():
    """1 s steady 200 Hz sine at 0.8 amplitude."""
    rate = 16000
    t = np.arange(rate) / rate
    return Waveform(0.8 * np.sin(2 * np.pi * 200.0 * t), rate)


@pytest.fixture
def am_wav_path(tmp_path, am_wave):
    path = tmp_path / "am.wav"
    write_wav_pcm16(path, am_wave)
    return path


WORDS_CSV = (
    "tier,label,start_s,end_s\n"
    "words,miss,0.0,0.3\n"
    "words,jones,0.3,0.5\n"
    "words,came,0.5,0.8\n"
    "words,home,0.8,0.9\n"
)


@pytest.fixture
def words_csv_path(tmp_path):
    path = tmp_path / "words.csv"
    path.write_text(WORDS_CSV)
    return path
