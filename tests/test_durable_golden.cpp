/// \file test_durable_golden.cpp
/// \brief Pins the on-disk durable format with committed golden files:
///        a fixed batch sequence run through a durable builder (k = 1
///        and k = 4, periodic checkpoints, small WAL segments) must
///        write exactly the bytes under tests/data/durable_golden/, and
///        `recover()` from those committed files must equal the rebuild
///        oracle. The in-memory run layout is free to change; these
///        files are what keeps the WAL and checkpoint bytes from moving
///        with it.
///
///   test_durable_golden                 check against the committed files
///   test_durable_golden --write <root>  regenerate <root>/k1 and <root>/k4
///
/// Regenerate only for a deliberate format change, which also bumps
/// `kWalFormatVersion`.

#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "algebra/pairs.hpp"
#include "graph/graph.hpp"
#include "graph/incidence.hpp"
#include "stream/adjacency_builder.hpp"
#include "util/io.hpp"
#include "test_util.hpp"

#ifndef I2A_TEST_DATA_DIR
#error "I2A_TEST_DATA_DIR must name tests/data"
#endif

using namespace i2a;

namespace {

using PT = algebra::PlusTimes<double>;
using Builder = stream::AdjacencyBuilder<PT>;

constexpr index_t kN = 48;
constexpr std::size_t kBatches = 14;
constexpr std::size_t kEmptyBatch = 6;
constexpr std::uint64_t kCheckpointEvery = 5;

/// The fixed batch sequence, from an inline splitmix64 stream so the
/// files do not depend on any generator in the library. Sources are
/// skewed toward vertex 3 (parallel edges, repeated rows), weights are
/// small integers (exact folds), and one batch is empty.
std::vector<std::vector<graph::Edge>> golden_batches() {
  std::uint64_t state = 0x1234abcdULL;
  const auto next = [&state] {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  std::vector<std::vector<graph::Edge>> out(kBatches);
  for (std::size_t b = 0; b < kBatches; ++b) {
    if (b == kEmptyBatch) continue;
    const std::size_t m = 5 + next() % 9;
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint64_t r = next();
      const auto src = static_cast<index_t>(
          r % 5 == 0 ? 3 : static_cast<index_t>(r % kN));
      const auto dst = static_cast<index_t>((r >> 17) % kN);
      out[b].push_back(
          graph::Edge{src, dst, static_cast<double>(1 + (r >> 40) % 9)});
    }
  }
  return out;
}

stream::Options golden_opts(const std::string& dir) {
  stream::Options o;
  o.weighting = stream::Weighting::kWeighted;
  o.wal_dir = dir;
  o.durability = stream::Durability::kNone;
  o.wal_segment_bytes = 400;
  o.checkpoint_every = kCheckpointEvery;
  return o;
}

/// Run the sequence through a fresh durable builder over `dir`. No
/// pool: checkpoints run inline, so what lands on disk is fixed.
void write_sequence(const std::string& dir, std::size_t shards) {
  const auto batches = golden_batches();
  Builder b(kN, shards, PT{}, golden_opts(dir));
  for (const auto& batch : batches) b.ingest(batch);
  b.drain();
}

sparse::Csr<double> oracle() {
  graph::Graph g(kN);
  for (const auto& batch : golden_batches()) {
    for (const auto& e : batch) g.add_edge(e.src, e.dst, e.weight);
  }
  const PT p{};
  return graph::adjacency_array(p, graph::weighted_incidence_arrays(g, p));
}

std::string make_temp_dir() {
  std::string tmpl = "/tmp/i2a-golden-XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    std::perror("mkdtemp");
    std::exit(2);
  }
  return tmpl;
}

struct TempDir {
  std::string path = make_temp_dir();
  ~TempDir() {
    for (const std::string& name : util::list_dir(path)) {
      util::remove_file(path + "/" + name);
    }
    ::rmdir(path.c_str());
  }
};

void copy_dir_flat(const std::string& from, const std::string& to) {
  for (const std::string& name : util::list_dir(from)) {
    const auto bytes = util::read_file(from + "/" + name);
    util::File f = util::File::create_append(to + "/" + name);
    f.write_fully(bytes.data(), bytes.size());
    f.close();
  }
}

std::string golden_dir(std::size_t shards) {
  return std::string(I2A_TEST_DATA_DIR) + "/durable_golden/k" +
         std::to_string(shards);
}

/// (a) A fresh run writes the committed files, byte for byte.
void test_rerun_matches_golden(std::size_t shards) {
  const std::string want = golden_dir(shards);
  TempDir td;
  write_sequence(td.path, shards);
  const auto names = util::list_dir(td.path);
  const auto want_names = util::list_dir(want);
  CHECK(names == want_names);
  CHECK(!want_names.empty());
  for (const std::string& name : want_names) {
    const bool same = util::file_exists(td.path + "/" + name) &&
                      util::read_file(td.path + "/" + name) ==
                          util::read_file(want + "/" + name);
    CHECK(same);
    if (!same) std::printf("  k=%zu: %s differs\n", shards, name.c_str());
  }
}

/// (b) Recovery from the committed files equals the rebuild oracle.
void test_recover_from_golden(std::size_t shards) {
  TempDir td;
  copy_dir_flat(golden_dir(shards), td.path);
  Builder r = Builder::recover(kN, shards, PT{}, golden_opts(td.path));
  CHECK_EQ(r.stats().batches, kBatches);
  CHECK(test::csr_bitwise_equal(r.adjacency(), oracle()));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--write") == 0) {
    const std::string root = argv[2];
    for (const std::size_t shards : {1u, 4u}) {
      const std::string dir = root + "/k" + std::to_string(shards);
      util::ensure_dir(root);
      util::ensure_dir(dir);
      write_sequence(dir, shards);
      std::printf("wrote %s\n", dir.c_str());
    }
    return 0;
  }
  for (const std::size_t shards : {1u, 4u}) {
    test_rerun_matches_golden(shards);
    test_recover_from_golden(shards);
  }
  return TEST_MAIN_RESULT();
}
