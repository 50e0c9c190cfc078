// avbench: the end-to-end benchmark program. perfbench/run.py builds it and
// runs its subcommands as separate processes:
//
//   setup    generate the seeded lake and write it as CSV files (serve set-up
//            also builds and saves the index and the initial rule set)
//   offline  timed BuildIndexFromDir + PatternIndex::Save, repeated (or one
//            build per step in stepped mode)
//   replay   traced single-threaded replay of the offline pipeline
//   rules    train and save the initial rule set for an existing index
//   serve    the server process (as avserved configures it)
//   probe    one in-process restart: load the files, answer one VALIDATE
//   session  rounds of restart -> TRAIN pass -> validate, over loopback or
//            in process (stepped mode: one round per step)
//   env      the machine and build record
#include <cstdio>
#include <string>
#include <thread>

#include "avbench.h"
#include "pattern/simd/token_simd.h"

namespace avbench {

int Fail(const std::string& msg) {
  std::fprintf(stderr, "avbench: %s\n", msg.c_str());
  return 1;
}

namespace {

int CmdEnv() {
  JsonOut out;
  out.Int("nproc", std::thread::hardware_concurrency());
  out.Str("tokenizer_arm", av::simd::TokenizerArmName(av::simd::TokenizerDispatch()));
  out.Str("compiler", AVBENCH_COMPILER);
  out.Str("build_type", AVBENCH_BUILD_TYPE);
  out.Print();
  return 0;
}

}  // namespace
}  // namespace avbench

int main(int argc, char** argv) {
  using namespace avbench;
  if (argc < 2) {
    return Fail("usage: avbench <setup|offline|replay|rules|serve|probe|session|env> ...");
  }
  const std::string cmd = argv[1];
  const Args args(argc, argv, 2);
  if (cmd == "setup") return CmdSetup(args);
  if (cmd == "offline") return CmdOffline(args);
  if (cmd == "replay") return CmdReplay(args);
  if (cmd == "rules") return CmdRules(args);
  if (cmd == "serve") return CmdServe(args);
  if (cmd == "session") return CmdSession(args);
  if (cmd == "probe") return CmdProbe(args);
  if (cmd == "env") return CmdEnv();
  return Fail("unknown subcommand " + cmd);
}
