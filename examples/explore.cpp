// explore - compose protocol x adversary x distribution x tester from the
// command line.  The "downstream user" tool: reproduce any cell of the
// paper's experiment grid without writing code.
//
//   explore <protocol> <adversary> <distribution> [options]
//
//   protocols     seq-broadcast | cgma | chor-rabin | gennaro |
//                 naive-commit-reveal | flawed-pi-g | flawed-pi-g-mpc |
//                 seq-broadcast-ds
//   adversaries   none | passive | silent | copy | parity | abort
//   distributions uniform | singleton:<bits> | copy | parity-even |
//                 product:<p0,p1,...>
//   options       --n=<parties=5> --corrupt=<i,j,...> --samples=<N=2000>
//                 --seed=<s=1> --threads=<T=SIMULCAST_THREADS or 1>
//                 --json=<PATH> --trace=<PATH>
//                 --drop=<P> --delay=<R> --crash=<party@round,...>
//
// --threads (or the SIMULCAST_THREADS environment variable) shards the
// sample collection across a thread pool; results are bit-identical for
// every thread count (see DESIGN.md, "exec engine seeding contract").
// --json / --trace route the run through the same core::finish_experiment
// epilogue as the bench drivers: BENCH_explore_*.json records and
// Perfetto-loadable TRACE_explore_*.json traces land under PATH.
// --drop / --delay / --crash install a deterministic sim::FaultPlan
// (sim/faults.h) applied to every execution; fault counters surface in the
// [exec] line and the emitted record.
//
// Examples:
//   explore flawed-pi-g parity uniform --corrupt=1,3
//   explore seq-broadcast copy singleton:1011 --n=4 --corrupt=3
//   explore gennaro passive product:0.3,0.7,0.5,0.8 --n=4 --corrupt=2
#include <iostream>
#include <sstream>

#include "core/registry.h"
#include "core/report.h"
#include "exec/runner.h"
#include "net/transport.h"
#include "net/worker.h"
#include "obs/trace.h"
#include "testers/cr_tester.h"
#include "testers/g_tester.h"
#include "testers/sb_tester.h"

namespace {

using namespace simulcast;

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr << "usage: explore <protocol> <adversary> <distribution> "
               "[--n=5] [--corrupt=i,j] [--samples=2000] [--seed=1] [--threads=1] "
               "[--transport=inproc|process] [--net-timeout=S] [--chaos=SPEC] "
               "[--json=PATH] [--trace=PATH] "
               "[--drop=P] [--delay=R] [--crash=party@round,...] "
               "[--checkpoint=PATH] [--resume] [--rep-timeout=S] [--retries=N] "
               "[--stop-after=K]\n"
               "run 'explore list' to enumerate the registered protocols.\n";
  std::exit(2);
}

std::vector<sim::PartyId> parse_ids(const std::string& csv) {
  std::vector<sim::PartyId> ids;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) ids.push_back(std::stoul(item));
  return ids;
}

std::vector<double> parse_probs(const std::string& csv) {
  std::vector<double> p;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) p.push_back(std::stod(item));
  return p;
}

std::shared_ptr<dist::InputEnsemble> make_ensemble(const std::string& spec, std::size_t n) {
  if (spec == "uniform") return dist::make_uniform(n);
  if (spec == "copy") return std::make_shared<dist::NoisyCopyEnsemble>(n, 0.0);
  if (spec == "parity-even") return std::make_shared<dist::EvenParityEnsemble>(n);
  if (spec.rfind("singleton:", 0) == 0)
    return std::make_shared<dist::SingletonEnsemble>(BitVec::from_string(spec.substr(10)));
  if (spec.rfind("product:", 0) == 0)
    return std::make_shared<dist::ProductEnsemble>(parse_probs(spec.substr(8)));
  usage("unknown distribution '" + spec + "'");
}

}  // namespace

int main(int argc, char** argv) {
  // Worker dispatch must run before the positional-argument checks: a
  // re-exec'd process-transport worker carries no positionals, only the
  // --simulcast-worker-* flags (configure_threads below never sees them —
  // it is handed argv offset past the positionals).
  if (const int worker_rc = simulcast::net::maybe_worker_main(argc, argv); worker_rc >= 0)
    return worker_rc;
  if (argc >= 2 && std::string(argv[1]) == "list") {
    for (const std::string& name : core::protocol_names()) std::cout << name << "\n";
    return 0;
  }
  if (argc < 4) usage();
  const std::string protocol_name = argv[1];
  const std::string adversary_name = argv[2];
  const std::string dist_spec = argv[3];

  // The uniform knobs (--threads, --transport, --json, --trace, the fault
  // and resilience flags) go through the same strict parser every bench
  // driver uses: an unknown or repeated option exits 2 there, so explore's
  // own loop only sees its four pass-through knobs.  argv is offset past
  // the three positionals, which configure_threads must not see.
  exec::configure_threads(argc - 3, argv + 3,
                          {"--n=", "--corrupt=", "--samples=", "--seed="});
  std::size_t n = 5;
  std::vector<sim::PartyId> corrupted;
  std::size_t samples = 2000;
  std::uint64_t seed = 1;
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--n=", 0) == 0)
      n = std::stoul(arg.substr(4));
    else if (arg.rfind("--corrupt=", 0) == 0)
      corrupted = parse_ids(arg.substr(10));
    else if (arg.rfind("--samples=", 0) == 0)
      samples = std::stoul(arg.substr(10));
    else if (arg.rfind("--seed=", 0) == 0)
      seed = std::stoull(arg.substr(7));
  }
  if (samples == 0) usage("--samples must be at least 1");
  if (exec::default_batch_options().resume && exec::default_batch_options().checkpoint_path.empty())
    usage("--resume requires --checkpoint=PATH");
  const sim::FaultPlan& faults = exec::default_fault_plan();

  try {
    const auto proto = core::make_protocol(protocol_name);
    const auto ensemble = make_ensemble(dist_spec, n);
    if (ensemble->bits() != n) usage("distribution width != --n");

    static const crypto::HashCommitmentScheme scheme;
    testers::RunSpec spec;
    spec.protocol = proto.get();
    spec.params.n = n;
    spec.params.commitments = &scheme;
    spec.corrupted = corrupted;
    if (adversary_name == "none" || adversary_name == "silent")
      spec.adversary = adversary::silent_factory();
    else if (adversary_name == "passive")
      spec.adversary = adversary::passive_factory(*proto, spec.params);
    else if (adversary_name == "copy")
      spec.adversary = adversary::copy_last_factory(0);
    else if (adversary_name == "parity")
      spec.adversary = adversary::parity_factory();
    else if (adversary_name == "abort")
      spec.adversary = adversary::selective_abort_factory(0, scheme);
    else
      usage("unknown adversary '" + adversary_name + "'");

    std::ostringstream setup;
    setup << protocol_name << " x " << adversary_name << " x " << ensemble->name() << "  (n="
          << n << ", corrupt={";
    for (std::size_t i = 0; i < corrupted.size(); ++i)
      setup << (i ? "," : "") << corrupted[i];
    setup << "}, " << samples << " executions, seed " << seed << ")";
    if (!faults.empty()) setup << "  faults: " << faults.summary();
    std::cout << "running " << setup.str() << "\n\n";

    obs::ExperimentRecord rec;
    rec.id = "explore/" + protocol_name + "-" + adversary_name + "-" + dist_spec;
    rec.paper_claim = "exploration run: no pinned claim, verdicts are observations";
    rec.setup = setup.str();
    rec.seed = seed;

    const auto sample_set = exec::Runner().run_batch(spec, *ensemble, samples, seed).samples;
    const double consistency = testers::consistency_rate(sample_set);
    std::cout << "consistency rate: " << core::fmt(consistency) << "\n";
    rec.cells.push_back({"consistency",
                         obs::check(true, "rate " + core::fmt(consistency))});
    const auto cr = testers::test_cr(sample_set, spec.corrupted);
    std::cout << core::describe(cr) << "\n";
    rec.cells.push_back({"CR", obs::record(cr)});
    if (!spec.corrupted.empty()) {
      const auto g = testers::test_g(sample_set, spec.corrupted);
      std::cout << core::describe(g) << "\n";
      rec.cells.push_back({"G", obs::record(g)});
    }
    testers::SbOptions sb_options;
    sb_options.samples = std::min<std::size_t>(samples, 800);
    const auto sb = testers::test_sb(spec, *ensemble, sb_options, seed + 1);
    std::cout << core::describe(sb) << "\n";
    rec.cells.push_back({"Sb", obs::record(sb)});
    std::cout << "\n";

    // Exploration has no expected outcome, so the run "reproduces" iff it
    // completed; the per-cell verdicts carry the observations.
    rec.reproduced = true;
    std::ostringstream detail;
    detail << rec.cells.size() << " verdict cells observed, consistency "
           << core::fmt(consistency);
    rec.detail = detail.str();
    return core::finish_experiment(rec);
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
