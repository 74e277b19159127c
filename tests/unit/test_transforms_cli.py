"""Unit tests for the user transformation API (§4.1) and the CLI."""

import pytest

from repro.core import Recompiler, make_library, run_image
from repro.core.transforms import (RecordExternalArgs,
                                   RedirectExternalCalls,
                                   RestrictSwitchTargets)
from repro.ir import Call, Switch
from repro.minicc import compile_minic

FS_PROG = r'''
int main() {
  if (fs_stat("/data/file.txt") == 0) {
    int f = fs_open("/data/file.txt");
    fs_close(f);
    printf("opened\n");
  }
  return 0;
}
'''

FS = {"/data/file.txt": b"payload"}


def _lift(source, opt=0):
    image = compile_minic(source, opt_level=opt)
    recompiler = Recompiler(image)
    cfg = recompiler.recover_cfg()
    from repro.core import Lifter
    return image, Lifter(image, cfg).lift()


class TestRecordExternalArgs:
    def test_inserts_hook_before_target(self):
        image, module = _lift(FS_PROG)
        RecordExternalArgs({"fs_stat": "__hook_stat"}).run_module(module)
        assert "__hook_stat" in module.imports
        for fn in module.functions:
            instrs = list(fn.instructions())
            for i, instr in enumerate(instrs):
                if isinstance(instr, Call) and instr.is_external and \
                        instr.callee == "fs_stat":
                    prev = instrs[i - 1]
                    assert isinstance(prev, Call)
                    assert prev.callee == "__hook_stat"
                    # Hook receives the same leading arguments.
                    assert prev.operands[0] is instr.operands[0]

    def test_hooked_binary_runs_and_notifies(self):
        image = compile_minic(FS_PROG)
        recompiler = Recompiler(image)
        cfg = recompiler.recover_cfg()
        from repro.core import Lifter
        from repro.core.fences import FenceInsertion
        from repro.core.runtime import RecompiledBinaryBuilder
        from repro.passes import standard_pipeline
        module = Lifter(image, cfg).lift()
        FenceInsertion().run_module(module)
        RecordExternalArgs({"fs_stat": "__hook_stat"}).run_module(module)
        standard_pipeline().run(module)
        scrub = [(b.start, b.end) for f in cfg.functions.values()
                 for b in f.blocks.values()]
        out = RecompiledBinaryBuilder(module, image,
                                      scrub_blocks=scrub).build()
        seen = []
        library = make_library(fs=dict(FS))
        library.register("__hook_stat",
                         lambda m, t, args: seen.append(
                             m.memory.read_cstr(args[0])) or 0)
        result = run_image(out, library=library)
        assert result.ok and result.stdout == b"opened\n"
        assert seen == [b"/data/file.txt"]


class TestRedirectExternalCalls:
    def test_callee_renamed(self):
        _image, module = _lift(FS_PROG)
        RedirectExternalCalls({"fs_open": "patched_open"}).run_module(module)
        callees = {i.callee for fn in module.functions
                   for i in fn.instructions()
                   if isinstance(i, Call) and i.is_external}
        assert "patched_open" in callees
        assert "fs_open" not in callees


class TestRestrictSwitchTargets:
    SWITCHY = r'''
int handle(int cmd) {
  switch (cmd) {
    case 0: return 100;
    case 1: return 101;
    case 2: return 102;
    case 3: return 103;
    default: return -1;
  }
}
int main() {
  printf("%d %d", handle(getparam(0)), handle(getparam(1)));
  return 0;
}
'''

    def test_banned_target_removed(self):
        image, module = _lift(self.SWITCHY, opt=3)
        switches = [i for fn in module.functions
                    for i in fn.instructions() if isinstance(i, Switch)]
        assert switches
        victim = switches[0].cases[0][0]
        before = len(switches[0].cases)
        RestrictSwitchTargets({victim}).run_module(module)
        assert len(switches[0].cases) == before - 1


class TestCLI:
    def _write_source(self, tmp_path):
        src = tmp_path / "prog.c"
        src.write_text(
            'int main() { printf("%d", 2 + 2); return 0; }')
        return src

    def test_compile_run(self, tmp_path, capsys):
        from repro.cli import main
        src = self._write_source(tmp_path)
        out = tmp_path / "prog.vxe"
        assert main(["compile", str(src), "-o", str(out), "-O", "3"]) == 0
        assert main(["run", str(out)]) == 0
        captured = capsys.readouterr()
        assert "4" in captured.out

    def test_disasm_writes_cfg(self, tmp_path, capsys):
        from repro.cli import main
        src = self._write_source(tmp_path)
        out = tmp_path / "prog.vxe"
        cfg = tmp_path / "cfg.json"
        main(["compile", str(src), "-o", str(out)])
        assert main(["disasm", str(out), "--json", str(cfg)]) == 0
        assert cfg.exists()

    def test_recompile_roundtrip(self, tmp_path, capsys):
        from repro.cli import main
        src = self._write_source(tmp_path)
        prog = tmp_path / "prog.vxe"
        recompiled = tmp_path / "out.vxe"
        main(["compile", str(src), "-o", str(prog)])
        assert main(["recompile", str(prog), "-o", str(recompiled)]) == 0
        capsys.readouterr()
        assert main(["run", str(recompiled)]) == 0
        assert "4" in capsys.readouterr().out

    def test_lift_prints_ir(self, tmp_path, capsys):
        from repro.cli import main
        src = self._write_source(tmp_path)
        prog = tmp_path / "prog.vxe"
        main(["compile", str(src), "-o", str(prog)])
        assert main(["lift", str(prog)]) == 0
        assert "define" in capsys.readouterr().out

    def test_workloads_listing(self, capsys):
        from repro.cli import main
        assert main(["workloads", "--group", "phoenix"]) == 0
        out = capsys.readouterr().out
        assert "histogram" in out and "word_count" in out

    def test_recompile_fence_opt_flag(self, tmp_path, capsys):
        from repro.cli import main
        src = tmp_path / "prog.c"
        # Single-threaded, no spinloops: fence removal must apply.
        src.write_text(
            'int g; int main() { int i; for (i = 0; i < 20; i += 1) '
            '{ g += i; } printf("%d", g); return 0; }')
        prog = tmp_path / "prog.vxe"
        out = tmp_path / "out.vxe"
        main(["compile", str(src), "-o", str(prog)])
        assert main(["recompile", str(prog), "-o", str(out),
                     "--fence-opt"]) == 0
        text = capsys.readouterr().out
        assert "fence optimisation applied" in text
        assert main(["run", str(out)]) == 0
        assert "190" in capsys.readouterr().out

    def test_recompile_additive_flag(self, tmp_path, capsys):
        from repro.cli import main
        src = tmp_path / "prog.c"
        # A function-pointer dispatch static recovery cannot prove:
        # exercised only through a table, so additive lifting must
        # discover it at run time.
        src.write_text(
            'int add2(int x) { return x + 2; } '
            'int mul3(int x) { return x * 3; } '
            'int table[2]; '
            'int main() { table[0] = (int)add2; table[1] = (int)mul3; '
            'int fn = table[getparam(0)]; int r = fn(7); '
            'printf("%d", r); return 0; }')
        prog = tmp_path / "prog.vxe"
        out = tmp_path / "out.vxe"
        main(["compile", str(src), "-o", str(prog)])
        capsys.readouterr()
        assert main(["recompile", str(prog), "-o", str(out),
                     "--additive", "--param", "1"]) == 0
        assert "additive lifting" in capsys.readouterr().out
        assert main(["run", str(out), "--param", "1"]) == 0
        assert "21" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "recompile", "stats",
                                         "tsan"])
    def test_bad_image_is_one_line_usage_error(self, tmp_path, capsys,
                                               command):
        from repro.cli import main
        bogus = tmp_path / "notes.txt"
        bogus.write_text("not a VXE image\n")
        argv = [command, str(bogus)]
        if command == "recompile":
            argv += ["-o", str(tmp_path / "out.vxe")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"polynima {command}: ") \
            and err.count("\n") == 1, err
        assert "bad magic" in err

    def test_truncated_image_is_one_line_usage_error(self, tmp_path,
                                                     capsys):
        from repro.cli import main
        prog = tmp_path / "prog.vxe"
        main(["compile", str(self._write_source(tmp_path)), "-o",
              str(prog)])
        prog.write_bytes(prog.read_bytes()[:40])
        capsys.readouterr()
        assert main(["run", str(prog)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"polynima run: {prog}: malformed header") \
            and err.count("\n") == 1, err

    def test_missing_image_is_one_line_usage_error(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["run", str(tmp_path / "missing.vxe")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("polynima run: ") and err.count("\n") == 1

    @pytest.mark.parametrize("content", ['{"truncated": ',
                                         '{"format": "other"}'],
                             ids=["bad-json", "wrong-format"])
    @pytest.mark.parametrize("subcommand", ["show", "merge"])
    def test_bad_profile_is_one_line_usage_error(self, tmp_path, capsys,
                                                 subcommand, content):
        from repro.cli import main
        bogus = tmp_path / "prof.json"
        bogus.write_text(content)
        argv = ["profile", subcommand, str(bogus)]
        if subcommand == "merge":
            argv += [str(bogus), "-o", str(tmp_path / "out.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"polynima profile {subcommand}: ") \
            and err.count("\n") == 1, err
