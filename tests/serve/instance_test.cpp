// Hosted-instance execution: admission validation's typed rejects, and
// run_instance as a pure function of (catalog, request) — correct across
// every protocol family and byte-deterministic on repeat.
#include "serve/instance.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "graphs/generators.h"
#include "support/golden.h"
#include "trees/generators.h"

namespace treeaa::serve {
namespace {

using test_support::fnv1a64;

Catalog test_catalog() {
  Catalog catalog;
  Rng tree_rng(7);
  catalog.add_tree("spider", make_family_tree(TreeFamily::kSpider, 20, tree_rng));
  Rng path_rng(1);
  catalog.add_tree("line", make_family_tree(TreeFamily::kPath, 9, path_rng));
  Rng graph_rng(11);
  catalog.add_graph("blocks", graphs::make_family_graph(
                                  graphs::GraphFamily::kCactus, 20, graph_rng));
  return catalog;
}

OpenRequest base_request(const char* protocol) {
  OpenRequest req;
  req.tenant = "test";
  req.protocol = protocol;
  req.topology = "spider";
  req.n = 8;
  req.t = 2;
  req.seed = 5;
  req.adversary = "none";
  return req;
}

TEST(ValidateRequest, AdmitsEveryServedFamily) {
  const Catalog catalog = test_catalog();
  for (const char* protocol :
       {"tree_aa", "iterated_tree_aa", "paths_finder", "async_tree_aa"}) {
    EXPECT_FALSE(
        validate_request(catalog, base_request(protocol), nullptr).has_value())
        << protocol;
  }
  OpenRequest req = base_request("block_aa");
  req.topology = "blocks";
  EXPECT_FALSE(validate_request(catalog, req, nullptr).has_value());
  req = base_request("real_aa");
  req.topology = "ignored-by-real-protocols";
  EXPECT_FALSE(validate_request(catalog, req, nullptr).has_value());
  req = base_request("path_aa");
  req.topology = "line";
  EXPECT_FALSE(validate_request(catalog, req, nullptr).has_value());
}

TEST(ValidateRequest, TypedRejects) {
  const Catalog catalog = test_catalog();
  std::string detail;

  OpenRequest req = base_request("no_such");
  EXPECT_EQ(validate_request(catalog, req, &detail),
            RejectCode::kUnknownProtocol);

  req = base_request("tree_aa");
  req.topology = "nope";
  EXPECT_EQ(validate_request(catalog, req, &detail),
            RejectCode::kUnknownTopology);

  req = base_request("block_aa");
  req.topology = "spider";  // a tree name is not a graph name
  EXPECT_EQ(validate_request(catalog, req, &detail),
            RejectCode::kUnknownTopology);

  req = base_request("tree_aa");
  req.t = 3;  // n = 8 <= 3t
  EXPECT_EQ(validate_request(catalog, req, &detail), RejectCode::kBadRequest);

  req = base_request("tree_aa");
  req.corrupt = 3;  // > t
  EXPECT_EQ(validate_request(catalog, req, &detail), RejectCode::kBadRequest);

  req = base_request("tree_aa");
  req.n = kMaxParties + 1;
  EXPECT_EQ(validate_request(catalog, req, &detail), RejectCode::kBadRequest);

  req = base_request("tree_aa");
  req.adversary = "split";  // registry kind, but not a served one
  EXPECT_EQ(validate_request(catalog, req, &detail), RejectCode::kBadRequest);

  req = base_request("async_tree_aa");
  req.adversary = "fuzz";
  EXPECT_EQ(validate_request(catalog, req, &detail), RejectCode::kBadRequest);

  req = base_request("path_aa");  // spider is not a path
  EXPECT_EQ(validate_request(catalog, req, &detail), RejectCode::kBadRequest);

  req = base_request("real_aa");
  req.eps = 0.0;
  EXPECT_EQ(validate_request(catalog, req, &detail), RejectCode::kBadRequest);

  // 3t wraps around 2^64 to 2 < n: still a fault-bound violation.
  req = base_request("tree_aa");
  req.n = 4;
  req.t = 6148914691236517206ull;
  detail.clear();
  EXPECT_EQ(validate_request(catalog, req, &detail), RejectCode::kBadRequest);
  EXPECT_EQ(detail, "requires n > 3t");
}

TEST(RunInstance, EveryFamilyCompletesAndPassesItsCheck) {
  const Catalog catalog = test_catalog();
  for (const char* protocol : {"tree_aa", "iterated_tree_aa", "paths_finder",
                               "real_aa", "iterated_real_aa",
                               "async_tree_aa"}) {
    OpenRequest req = base_request(protocol);
    ASSERT_FALSE(validate_request(catalog, req, nullptr).has_value())
        << protocol;
    const InstanceResult result = run_instance(catalog, req);
    EXPECT_TRUE(result.error.empty()) << protocol << ": " << result.error;
    EXPECT_TRUE(result.reply.ok) << protocol;
    if (std::string(protocol) != "async_tree_aa") {
      EXPECT_GT(result.reply.rounds, 0u) << protocol;  // async has no rounds
    }
    EXPECT_GT(result.reply.messages, 0u) << protocol;
  }
  OpenRequest req = base_request("block_aa");
  req.topology = "blocks";
  const InstanceResult result = run_instance(catalog, req);
  EXPECT_TRUE(result.error.empty()) << result.error;
  EXPECT_TRUE(result.reply.ok);
}

TEST(RunInstance, LedgerCheckPassesWhereItApplies) {
  // With the ledger enabled, every sync-AA family must replay clean against
  // the paper's round budget; paths_finder (phase-1 only) and the async
  // model (no rounds) are exempt and must report zero rather than a
  // spurious budget violation.
  const Catalog catalog = test_catalog();
  for (const char* protocol : {"tree_aa", "iterated_tree_aa", "real_aa",
                               "iterated_real_aa", "paths_finder",
                               "async_tree_aa"}) {
    const InstanceResult result =
        run_instance(catalog, base_request(protocol), /*ledger=*/true);
    EXPECT_TRUE(result.error.empty()) << protocol << ": " << result.error;
    EXPECT_TRUE(result.reply.ok) << protocol;
    EXPECT_EQ(result.ledger_violations, 0u) << protocol;
  }
  OpenRequest req = base_request("block_aa");
  req.topology = "blocks";
  const InstanceResult result = run_instance(catalog, req, /*ledger=*/true);
  EXPECT_TRUE(result.reply.ok);
  EXPECT_EQ(result.ledger_violations, 0u);
}

TEST(RunInstance, LedgerDoesNotChangeTheReplyBytes) {
  // The ledger observes via obs hooks only — switching it on must never
  // perturb the deterministic outcome a client sees.
  const Catalog catalog = test_catalog();
  OpenRequest req = base_request("tree_aa");
  req.adversary = "fuzz";
  req.corrupt = 2;
  req.inputs = InputKind::kRandom;
  EXPECT_EQ(encode_result_reply(run_instance(catalog, req, false).reply),
            encode_result_reply(run_instance(catalog, req, true).reply));
}

TEST(RunInstance, SurvivesAdversariesWithinBudget) {
  const Catalog catalog = test_catalog();
  for (const char* adversary : {"silent", "fuzz"}) {
    OpenRequest req = base_request("tree_aa");
    req.adversary = adversary;
    req.corrupt = 2;
    req.inputs = InputKind::kRandom;
    const InstanceResult result = run_instance(catalog, req);
    EXPECT_TRUE(result.error.empty()) << adversary << ": " << result.error;
    EXPECT_TRUE(result.reply.ok) << adversary;
    EXPECT_EQ(result.reply.corrupt, 2u) << adversary;
  }
}

TEST(RunInstance, IsAPureFunctionOfTheRequest) {
  const Catalog catalog = test_catalog();
  OpenRequest req = base_request("tree_aa");
  req.adversary = "fuzz";
  req.corrupt = 1;
  req.inputs = InputKind::kRandom;
  const Bytes first = encode_result_reply(run_instance(catalog, req).reply);
  const Bytes second = encode_result_reply(run_instance(catalog, req).reply);
  EXPECT_EQ(first, second);

  // A different seed draws different inputs/victims — the witness hash
  // must move (with overwhelming probability), proving the seed is
  // actually threaded through.
  OpenRequest other = req;
  other.seed = req.seed + 1;
  EXPECT_NE(encode_result_reply(run_instance(catalog, other).reply), first);
}

TEST(RunInstance, SpreadInputsAreDeterministicWithoutSeedDependence) {
  // Spread inputs don't consume randomness: two different seeds with no
  // adversary must produce identical outputs (the RNG streams are forked
  // but never drawn from).
  const Catalog catalog = test_catalog();
  OpenRequest req = base_request("tree_aa");
  OpenRequest other = req;
  other.seed = 999;
  EXPECT_EQ(run_instance(catalog, req).reply.outputs_hash,
            run_instance(catalog, other).reply.outputs_hash);
}

/// Pins the encoded ResultReply of one request per registry protocol across
/// commits (FNV-1a 64 of encode_result_reply): rounds, messages, verdict,
/// spread and the outputs witness all sit in those bytes. Adversaries and
/// random inputs are on wherever serve accepts them. A refactor of the
/// instance runner or its checks must leave every hash untouched; a change
/// that alters one on purpose re-records it and says why.
TEST(RunInstance, ReplyBytesGolden) {
  struct Golden {
    const char* protocol;
    const char* topology;
    const char* adversary;
    std::uint64_t corrupt;
    InputKind inputs;
    std::uint64_t hash;
  };
  const Golden kGolden[] = {
      {"tree_aa", "spider", "fuzz", 2, InputKind::kRandom,
       0x0fe75b0d2eab0a60ull},
      {"iterated_tree_aa", "spider", "silent", 1, InputKind::kRandom,
       0xe6d8913cd362a6d7ull},
      {"real_aa", "", "fuzz", 2, InputKind::kRandom,
       0x835ce46a50c09dffull},
      {"iterated_real_aa", "", "silent", 2, InputKind::kSpread,
       0x225e52858e9aab8eull},
      {"path_aa", "line", "fuzz", 1, InputKind::kRandom,
       0x977d78056c574f75ull},
      {"paths_finder", "spider", "fuzz", 2, InputKind::kRandom,
       0xfce4e5fd2add3d54ull},
      {"async_tree_aa", "spider", "silent", 2, InputKind::kRandom,
       0xbeab38ea578c03d5ull},
      {"block_aa", "blocks", "fuzz", 2, InputKind::kRandom,
       0xda53ceb79d871086ull},
  };
  const Catalog catalog = test_catalog();
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(g.protocol);
    OpenRequest req = base_request(g.protocol);
    req.topology = g.topology;
    req.adversary = g.adversary;
    req.corrupt = g.corrupt;
    req.inputs = g.inputs;
    req.eps = 0.5;
    req.known_range = 100.0;
    ASSERT_FALSE(validate_request(catalog, req, nullptr).has_value());
    const InstanceResult result = run_instance(catalog, req);
    EXPECT_TRUE(result.error.empty()) << result.error;
    EXPECT_TRUE(result.reply.ok);
    EXPECT_EQ(fnv1a64(encode_result_reply(result.reply)), g.hash);
  }
}

}  // namespace
}  // namespace treeaa::serve
