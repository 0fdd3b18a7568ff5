# Convenience targets; every recipe is runnable without installation
# via PYTHONPATH=src.

PY := PYTHONPATH=src python
TRACE_DIR := /tmp/repro-trace-smoke

.PHONY: test unit trace-smoke serve-smoke obs-smoke bench-smoke bench \
        conform-smoke conform codebooks-smoke test-no-native native-asan

# tier-1 verification (ROADMAP.md): unit suite + telemetry smoke +
# serving smoke + observability smoke + codebook-registry smoke +
# no-native-kernel decode/encode leg + differential conformance smoke
# matrix + wall-clock smoke (the scan-pack no-regression gate)
test: unit trace-smoke serve-smoke obs-smoke codebooks-smoke \
      test-no-native conform-smoke bench-smoke

unit:
	$(PY) -m pytest -x -q

# hosts without a C compiler: with the compiled module (repro.native)
# switched off, every decode goes through the lane decoder (then
# assemble), every encode through the paper's iterative pair
# (reduce_merge -> shuffle_merge), every histogram through fast_histogram
# and every Lorenzo quantize/dequantize through its NumPy body — run
# the chunk-lane, batch and tiered decoder suites, the container fuzz,
# the serve decode stress (the only leg where hostile bytes reach the
# lanes through the public entry points), the scan-pack, single-stage,
# adaptive (its groups pack through the same route) and
# registered-codebook encode suites, the histogram, codebook and
# decode-table builder suites, the quantization suites, the
# multi-symbol plane's NumPy oracle, the codeword-length route (its
# Python two-queue oracle), the decode-setup routes (canonical codes,
# decode table and lane layout from their NumPy oracles) plus the
# conformance smoke that way
test-no-native:
	REPRO_DISABLE_NATIVE=1 $(PY) -m pytest -x -q \
	        tests/test_gap_decoder.py tests/test_batch_decoder.py \
	        tests/test_tiered_decode.py tests/test_serialization_fuzz.py \
	        tests/test_decode_stress.py tests/test_scan_pack.py \
	        tests/test_single_stage.py \
	        tests/test_adaptive.py tests/test_adaptive_serialization.py \
	        tests/test_codebooks_registry.py tests/test_histogram.py \
	        tests/test_generate_cl_cw.py tests/test_decode_table_build.py \
	        tests/test_quantize_pass.py tests/test_datasets.py \
	        tests/test_multi_plane.py tests/test_two_queue_pass.py \
	        tests/test_decode_setup_pass.py
	REPRO_DISABLE_NATIVE=1 $(MAKE) --no-print-directory conform-smoke

# memory-safety leg for the native module (tier 2): REPRO_NATIVE_SANITIZE=1
# rebuilds it with AddressSanitizer + UBSan under its own cache digest.
# Python itself is not instrumented, so libasan/libubsan are preloaded
# and leak checking is off.  Runs the chunk-decode property and hostile
# tests, the container fuzz, the scan-pack pass against the iterative
# pair and its breaking side channel against the NumPy backtrace
# (misaligned views and short side buffers included), the C-vs-NumPy
# histogram, two-queue codeword-length, Lorenzo quantize/dequantize,
# multi-symbol plane and decode-setup (canonical codes, decode table,
# lane layout, with their too-small-buffer refusals) tests (the
# histogram pass also under the gpu_histogram suite and as the
# registered route's count in the single-stage suite, the Lorenzo
# passes also under the dataset suite), then the conformance fuzz (170 rounds
# x 6 ops = 1020 mutants per container on the text and DNA corpora,
# each decoded in full) and the golden check.
# The last line is the leg's negative self-test: a raw pass call whose
# n_out exceeds its output array MUST abort under ASan (hence the `!`)
ASAN_RUN := REPRO_NATIVE_SANITIZE=1 ASAN_OPTIONS=detect_leaks=0 \
        LD_PRELOAD="$$(gcc -print-file-name=libasan.so) $$(gcc -print-file-name=libubsan.so)"
native-asan:
	$(ASAN_RUN) $(PY) -m pytest -x -q tests/test_gap_decoder.py \
	        tests/test_chunk_decode_pass.py tests/test_serialization_fuzz.py \
	        tests/test_scan_pack.py tests/test_histogram_pass.py \
	        tests/test_histogram.py tests/test_quantize_pass.py \
	        tests/test_datasets.py tests/test_multi_plane.py \
	        tests/test_two_queue_pass.py tests/test_decode_setup_pass.py \
	        tests/test_single_stage.py
	$(ASAN_RUN) $(PY) -m repro.conform.cli --corpora enwik8,genomics \
	        --fuzz-rounds 170 --out /tmp/CONFORMANCE.asan.json
	! $(ASAN_RUN) $(PY) tests/asan_negative_probe.py \
	        2> /tmp/native-asan.negative.log

# serving smoke: boot an ephemeral repro-serve, fire a mixed burst
# (including a malformed body and an oversized payload), assert the
# 200/400/413 contract and a clean shutdown
serve-smoke:
	$(PY) -m repro.serve.cli --smoke

# end-to-end telemetry smoke: run a traced compress/decompress round
# trip (examples/trace_pipeline.py), then schema-validate the emitted
# Chrome-trace and JSONL files with the repro-trace CLI
trace-smoke:
	$(PY) examples/trace_pipeline.py --out-dir $(TRACE_DIR) --quiet
	$(PY) -m repro.obs.cli $(TRACE_DIR)/trace.json --validate
	$(PY) -m repro.obs.cli $(TRACE_DIR)/trace.jsonl --validate

# observability smoke: boot an ephemeral server, drive a burst with one
# forced error and one forced p99 outlier, then strictly validate every
# telemetry surface — /metrics round-trips through the Prometheus text
# parser (cumulative buckets, escaped labels), /slo evaluates all stock
# objectives, /trace/recent is a valid Chrome trace containing the
# error and the outlier with full span trees
obs-smoke:
	$(PY) -m repro.obs.smoke

# codebook-registry smoke: boot an ephemeral server, register a
# nyx_quant-style book over /codebooks, assert hot codebook_id requests
# skip the histogram/codebook spans (via /trace/recent), assert the
# registry hit metrics and the 400 contract for unknown/uncovered ids
codebooks-smoke:
	$(PY) -m repro.codebooks.smoke

# conformance smoke: every smoke-tier encoder x decoder pair over the
# smoke corpora, plus the harness's own negative self-test (a seeded
# divergence MUST make repro-conform exit non-zero, hence the `!`)
conform-smoke:
	$(PY) -m repro.conform.cli --out /tmp/CONFORMANCE.json
	! $(PY) -m repro.conform.cli --seed-divergence --no-fuzz \
	        --no-invariants --no-golden --no-shrink \
	        --out /tmp/CONFORMANCE.negative.json > /dev/null

# full conformance matrix: every registered implementation over the
# full corpus set; writes ./CONFORMANCE.json
conform:
	$(PY) -m repro.conform.cli --full --out CONFORMANCE.json

# wall-clock smoke (benchmarks/test_wallclock.py): asserts the >=20x
# batch-vs-scalar decode bar on the enwik surrogate, gates the scan-pack
# encoder (byte-identical container AND no slower than the iterative
# reference), the native chunk-lane decoder (bit-identical to the lane
# decoder, and >=3x faster on both surrogates when the compiled kernel
# is available), the serve and codebook-registry round trips and the
# deep-book decode tables, then appends the run to
# benchmarks/results/BENCH_history.jsonl and gates it against the
# rolling baseline (non-zero exit on regression).
# The second line is the perf-history sentinel's negative self-test: a
# synthetic ~30% slowdown over a stable baseline MUST make the sentinel
# exit non-zero (hence the `!`) — a sentinel that stops catching
# regressions fails the build
bench-smoke:
	$(PY) -m pytest benchmarks/test_wallclock.py -q
	! $(PY) -m repro.perf.history --self-test 0.3 > /dev/null

# full modeled-benchmark suite (regenerates the paper tables)
bench:
	$(PY) -m pytest benchmarks -q
