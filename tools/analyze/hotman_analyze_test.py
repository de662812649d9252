#!/usr/bin/env python3
"""Unit tests for hotman_analyze and its cpp_model parsing core: every
pass must catch its seeded fixture bug (tools/testdata/analyze/), stay
quiet on the fixed/negative variants, honor justified NOLINTs, and the
real tree must be clean modulo the checked-in baseline."""

import pathlib
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import cpp_model  # noqa: E402
import hotman_analyze  # noqa: E402

TESTDATA = (pathlib.Path(__file__).resolve().parent.parent
            / "testdata" / "analyze")
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


def analyze_fixtures(mapping):
    """Copies {fixture_name: repo_rel_path} into a scratch tree, runs all
    passes, returns the findings (after NOLINT filtering)."""
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        for fixture, rel in mapping.items():
            dest = root / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(TESTDATA / fixture, dest)
        return hotman_analyze.analyze_tree(root)


# --- cpp_model ---------------------------------------------------------------

class StripSourceTest(unittest.TestCase):
    def test_comments_strings_and_directives_blanked(self):
        text = ('#include "a/b.h"\n'
                'int x = 1;  // trailing\n'
                '/* block\n   comment */ const char* s = "fn(); {";\n'
                "char c = '{';\n"
                'auto r = R"raw(ignored " stuff))raw";\n')
        code, directives = cpp_model.strip_source(text)
        self.assertEqual(len(code), len(text))
        self.assertEqual(code.count("\n"), text.count("\n"))
        for gone in ("trailing", "block", "fn();", "ignored", "'{'"):
            self.assertNotIn(gone, code)
        self.assertIn("int x = 1;", code)
        self.assertEqual(directives, [(1, '#include "a/b.h"')])

    def test_continuation_directive_folded(self):
        text = "#define M(x) \\\n  do_thing(x)\nint y;\n"
        code, directives = cpp_model.strip_source(text)
        self.assertEqual(directives, [(1, "#define M(x) do_thing(x)")])
        self.assertNotIn("do_thing", code)
        self.assertIn("int y;", code)


class FunctionExtractionTest(unittest.TestCase):
    def test_qualified_methods_and_calls(self):
        code, _ = cpp_model.strip_source(
            "namespace hotman::cluster {\n"
            "class Node {\n"
            " public:\n"
            "  int Put(int k) const { return Store(k); }\n"
            "};\n"
            "void Node::Pump() {\n"
            "  if (Ready()) {\n"
            "    Flush();\n"
            "  }\n"
            "}\n"
            "}  // namespace\n")
        fns = cpp_model.extract_functions(code, "src/cluster/node.cc")
        by_name = {f.qualname: f for f in fns}
        self.assertIn("hotman::cluster::Node::Put", by_name)
        self.assertIn("hotman::cluster::Node::Pump", by_name)
        pump = by_name["hotman::cluster::Node::Pump"]
        self.assertEqual(pump.class_name, "Node")
        calls = {name for name, _ in pump.calls}
        self.assertEqual(calls, {"Ready", "Flush"})
        # `if` is a keyword, not a call.
        self.assertNotIn("if", calls)

    def test_ctor_init_list_and_destructor(self):
        code, _ = cpp_model.strip_source(
            "namespace n {\n"
            "Widget::Widget(int a) : a_(a), b_(Make(a)) { Init(); }\n"
            "Widget::~Widget() { Close(); }\n"
            "}\n")
        fns = cpp_model.extract_functions(code, "src/common/widget.cc")
        names = {f.name for f in fns}
        self.assertEqual(names, {"Widget", "~Widget"})

    def test_include_closure_restricts_resolution(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            (root / "src/common").mkdir(parents=True)
            (root / "src/sim").mkdir(parents=True)
            (root / "src/common/a.h").write_text(
                "namespace h { inline void Helper() {} }\n")
            (root / "src/common/b.h").write_text(
                "namespace h { inline void Helper() {} }\n")
            (root / "src/sim/user.cc").write_text(
                '#include "common/a.h"\n'
                "namespace h { void Use() { Helper(); } }\n")
            tree = cpp_model.Tree(root)
            targets = tree.resolve_call("src/sim/user.cc", "Helper")
            self.assertEqual([t.file for t in targets], ["src/common/a.h"])


# --- pass 1: transitive blocking ---------------------------------------------

class TransitiveBlockingTest(unittest.TestCase):
    MAPPING = {"retry_budget.h": "src/common/retry_budget.h",
               "sim_loop.cc": "src/sim/loop.cc"}

    def test_one_and_two_hop_chains_flagged(self):
        out = analyze_fixtures(self.MAPPING)
        blocking = [f for f in out if f.rule == "transitive-blocking"]
        messages = "\n".join(str(f) for f in blocking)
        self.assertIn("no-mutex", messages)
        self.assertIn("no-blocking-io", messages)
        self.assertIn("CountRetries", messages)
        # The two-hop chain keeps its full route in the message.
        self.assertIn("LogRetry -> hotman::WriteLine", messages)
        for f in blocking:
            self.assertEqual(f.file, "src/sim/loop.cc")
            self.assertEqual(f.function, "hotman::sim::Tick")

    def test_pure_seam_and_suppressed_paths_quiet(self):
        out = analyze_fixtures(self.MAPPING)
        messages = "\n".join(str(f) for f in out)
        self.assertNotIn("PureMath", messages)       # no primitives
        self.assertNotIn("ScheduleTimer", messages)  # seam-exempt
        self.assertNotIn("Suppressed", "".join(f.function for f in out))
        self.assertEqual([f.rule for f in out if f.rule == "nolint"], [])

    def test_bare_nolint_is_reported(self):
        out = analyze_fixtures({
            "retry_budget.h": "src/common/retry_budget.h",
            "sim_loop_bare_nolint.cc": "src/sim/bare.cc"})
        self.assertEqual([f.rule for f in out], ["nolint"])
        self.assertEqual(out[0].file, "src/sim/bare.cc")

    def test_same_helpers_fine_outside_event_loop(self):
        out = analyze_fixtures({
            "retry_budget.h": "src/common/retry_budget.h",
            "sim_loop.cc": "src/rest/loop.cc"})
        self.assertEqual(
            [f for f in out if f.rule == "transitive-blocking"], [])


# --- pass 2: lock-order cycles -----------------------------------------------

class LockOrderTest(unittest.TestCase):
    def test_declared_vs_observed_cycle_flagged(self):
        out = analyze_fixtures({"lock_cycle.h": "src/docstore/cache.h"})
        cycles = [f for f in out if f.rule == "lock-order-cycle"]
        self.assertEqual(len(cycles), 1, [str(f) for f in out])
        msg = cycles[0].message
        self.assertIn("cache::map_mu_", msg)
        self.assertIn("cache::stats_mu_", msg)
        self.assertIn("declared", msg)
        self.assertIn("observed", msg)

    def test_consistent_order_quiet(self):
        out = analyze_fixtures({"lock_clean.h": "src/docstore/clean_cache.h"})
        self.assertEqual([str(f) for f in out], [])

    def test_reacquire_held_mutex_is_self_deadlock(self):
        out = analyze_fixtures({"lock_self.cc": "src/docstore/ledger.cc"})
        self.assertEqual(len(out), 1, [str(f) for f in out])
        self.assertEqual(out[0].rule, "lock-order-cycle")
        self.assertIn("self-deadlock", out[0].message)
        self.assertIn("ledger::mu_", out[0].message)

    def test_justified_nolint_suppresses_self_deadlock(self):
        out = analyze_fixtures(
            {"lock_self_suppressed.cc": "src/docstore/gauge.cc"})
        self.assertEqual([str(f) for f in out], [])


# --- pass 3: callback self-capture leaks -------------------------------------

class CallbackLeakTest(unittest.TestCase):
    def test_pr4_self_owning_closure_and_member_capture_flagged(self):
        out = analyze_fixtures({"callback_leak.cc": "src/cluster/retry.cc"})
        leaks = [f for f in out if f.rule == "callback-self-capture"]
        self.assertEqual(len(leaks), 2, [str(f) for f in out])
        shared_fn = [f for f in leaks if "owns itself" in f.message]
        member = [f for f in leaks if "shared_from_this" in f.message]
        self.assertEqual(len(shared_fn), 1, [str(f) for f in leaks])
        self.assertEqual(len(member), 1, [str(f) for f in leaks])
        self.assertIn("`attempt`", shared_fn[0].message)
        self.assertIn("`on_data_`", member[0].message)

    def test_weak_ptr_fix_quiet(self):
        out = analyze_fixtures(
            {"callback_leak_fixed.cc": "src/cluster/retry_fixed.cc"})
        self.assertEqual([str(f) for f in out], [])

    def test_justified_nolint_suppresses(self):
        out = analyze_fixtures(
            {"callback_leak_suppressed.cc": "src/cluster/retry_sup.cc"})
        self.assertEqual([str(f) for f in out], [])


# --- pass 4: determinism hazards ---------------------------------------------

class DeterminismTest(unittest.TestCase):
    def test_replay_layer_hazards_all_flagged(self):
        out = analyze_fixtures(
            {"determinism_bad.cc": "src/workload/replay_stats.cc"})
        rules = sorted(f.rule for f in out)
        self.assertEqual(rules, ["pointer-identity", "pointer-identity",
                                 "pointer-keyed-container",
                                 "unordered-iteration"],
                         [str(f) for f in out])
        unordered = [f for f in out if f.rule == "unordered-iteration"]
        # Only Emit(); EmitStable() carries a justified NOLINT.
        self.assertEqual(len(unordered), 1)
        self.assertEqual(unordered[0].function,
                         "hotman::workload::ReplayStats::Emit")

    def test_threaded_layer_exempt(self):
        out = analyze_fixtures(
            {"determinism_bad.cc": "src/docstore/replay_stats.cc"})
        self.assertEqual([str(f) for f in out], [])


# --- real tree ---------------------------------------------------------------

class RealTreeTest(unittest.TestCase):
    def test_real_tree_clean_modulo_baseline(self):
        findings = hotman_analyze.analyze_tree(REPO_ROOT)
        baseline = hotman_analyze.load_baseline(
            pathlib.Path(hotman_analyze.__file__).resolve().parent
            / "baseline.json")
        new = [str(f) for f in findings if f.fingerprint not in baseline]
        self.assertEqual(new, [], "\n".join(new))

    def test_baseline_entries_all_live_and_justified(self):
        baseline = hotman_analyze.load_baseline(
            pathlib.Path(hotman_analyze.__file__).resolve().parent
            / "baseline.json")
        live = {f.fingerprint for f in hotman_analyze.analyze_tree(REPO_ROOT)}
        for fp, entry in baseline.items():
            self.assertIn(fp, live,
                          f"stale baseline entry {fp}: {entry}")
            just = entry.get("justification", "")
            self.assertTrue(just and "TODO" not in just,
                            f"baseline entry {fp} lacks a justification")


if __name__ == "__main__":
    unittest.main()
