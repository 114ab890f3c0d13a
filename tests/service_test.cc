#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "paris/api/dataset.h"
#include "paris/api/session.h"
#include "paris/core/result_reader.h"
#include "paris/service/daemon.h"
#include "paris/service/protocol.h"
#include "paris/service/read_path.h"
#include "paris/util/fault_injection.h"
#include "paris/util/flags.h"
#include "paris/util/fs.h"
#include "paris/util/net.h"
#include "paris/util/status.h"

namespace paris {
namespace {

using core::ResultReader;
using service::ErrorReply;
using service::kDefaultMaxFrameBytes;
using service::LookupCache;
using service::ReadFrame;
using service::SplitTokens;
using service::StatusFromReply;
using service::WriteFrame;
using util::SocketConn;
using util::SocketListener;
using util::StatusCode;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// A connected loopback socket pair: `client` dialed `server`'s listener.
struct LoopbackPair {
  SocketConn client;
  SocketConn server;
};

LoopbackPair MakeLoopbackPair() {
  auto listener = SocketListener::Listen("127.0.0.1", 0);
  EXPECT_TRUE(listener.ok()) << listener.status().ToString();
  auto client = SocketConn::Connect("127.0.0.1", listener->port());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  auto server = listener->Accept();
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return {std::move(*client), std::move(*server)};
}

// Disarms the global fault injector on scope exit, so a failing assertion
// can't leak an armed fault into later tests.
struct FaultGuard {
  FaultGuard() { util::FaultInjector::Global().Reset(); }
  ~FaultGuard() { util::FaultInjector::Global().Reset(); }
};

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

TEST(ProtocolFrameTest, RoundTripsPayloadsOfVariedSizes) {
  LoopbackPair pair = MakeLoopbackPair();
  // The large payload spans many TCP segments but stays well under the
  // loopback send buffer — both ends run on this one thread, so a blocking
  // SendAll would deadlock the test.
  const std::vector<std::string> payloads = {
      "", "PING", std::string(1, '\0'), std::string(48 * 1024, 'x')};
  for (const std::string& sent : payloads) {
    ASSERT_TRUE(WriteFrame(pair.client, sent, kDefaultMaxFrameBytes).ok());
    std::string got;
    auto more = ReadFrame(pair.server, &got, kDefaultMaxFrameBytes);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    EXPECT_TRUE(*more);
    EXPECT_EQ(got, sent);
  }
}

TEST(ProtocolFrameTest, CleanCloseBetweenFramesIsEof) {
  LoopbackPair pair = MakeLoopbackPair();
  ASSERT_TRUE(WriteFrame(pair.client, "last", kDefaultMaxFrameBytes).ok());
  pair.client.Close();
  std::string got;
  auto more = ReadFrame(pair.server, &got, kDefaultMaxFrameBytes);
  ASSERT_TRUE(more.ok());
  EXPECT_TRUE(*more);
  EXPECT_EQ(got, "last");
  more = ReadFrame(pair.server, &got, kDefaultMaxFrameBytes);
  ASSERT_TRUE(more.ok()) << more.status().ToString();
  EXPECT_FALSE(*more);  // clean EOF, not an error
}

TEST(ProtocolFrameTest, WriterRefusesOversizedPayload) {
  LoopbackPair pair = MakeLoopbackPair();
  const std::string big(65, 'x');
  EXPECT_EQ(WriteFrame(pair.client, big, /*max_frame_bytes=*/64).code(),
            StatusCode::kInvalidArgument);
  // Nothing was sent: the reader still sees a clean EOF after close.
  pair.client.Close();
  std::string got;
  auto more = ReadFrame(pair.server, &got, 64);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
}

TEST(ProtocolFrameTest, ReaderRejectsOversizedLengthPrefix) {
  LoopbackPair pair = MakeLoopbackPair();
  // A hand-built header claiming a frame far over the reader's cap. The
  // reader must reject it from the prefix alone, before buffering a body.
  const unsigned char header[4] = {0xFF, 0xFF, 0xFF, 0x7F};
  ASSERT_TRUE(pair.client.SendAll(header, sizeof(header)).ok());
  std::string got;
  auto more = ReadFrame(pair.server, &got, kDefaultMaxFrameBytes);
  EXPECT_EQ(more.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolFrameTest, TruncatedPayloadIsDataLoss) {
  LoopbackPair pair = MakeLoopbackPair();
  const unsigned char header[4] = {10, 0, 0, 0};  // promises 10 bytes
  ASSERT_TRUE(pair.client.SendAll(header, sizeof(header)).ok());
  ASSERT_TRUE(pair.client.SendAll("abc", 3).ok());
  pair.client.Close();
  std::string got;
  auto more = ReadFrame(pair.server, &got, kDefaultMaxFrameBytes);
  EXPECT_EQ(more.status().code(), StatusCode::kDataLoss);
}

TEST(ProtocolFrameTest, TruncatedHeaderIsDataLoss) {
  LoopbackPair pair = MakeLoopbackPair();
  ASSERT_TRUE(pair.client.SendAll("\x05\x00", 2).ok());  // half a header
  pair.client.Close();
  std::string got;
  auto more = ReadFrame(pair.server, &got, kDefaultMaxFrameBytes);
  EXPECT_EQ(more.status().code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// Token + error-reply helpers
// ---------------------------------------------------------------------------

TEST(ProtocolTokenTest, SplitCollapsesWhitespace) {
  EXPECT_EQ(SplitTokens("  LOOKUP   entity\tleft  "),
            (std::vector<std::string>{"LOOKUP", "entity", "left"}));
  EXPECT_TRUE(SplitTokens("").empty());
  EXPECT_TRUE(SplitTokens("   \t  ").empty());
}

TEST(ProtocolTokenTest, MaxTokensKeepsTrimmedRemainder) {
  // The remainder token preserves interior spaces (lookup keys may hold
  // them) but is right-trimmed.
  EXPECT_EQ(SplitTokens("LOOKUP entity left  a key  with spaces  ", 4),
            (std::vector<std::string>{"LOOKUP", "entity", "left",
                                      "a key  with spaces"}));
  EXPECT_EQ(SplitTokens("A B", 4), (std::vector<std::string>{"A", "B"}));
}

TEST(ProtocolErrorTest, ErrorReplyRoundTripsCodeAndMessage) {
  for (const StatusCode code :
       {StatusCode::kNotFound, StatusCode::kInvalidArgument,
        StatusCode::kFailedPrecondition, StatusCode::kDataLoss}) {
    const util::Status status(code, "the message, with punctuation");
    const util::Status back = StatusFromReply(ErrorReply(status));
    EXPECT_EQ(back.code(), code);
    EXPECT_EQ(back.message(), status.message());
  }
  EXPECT_TRUE(StatusFromReply("OK 3").ok());
  EXPECT_TRUE(StatusFromReply("").ok());
  // An unparseable code name must still surface as an error.
  EXPECT_EQ(StatusFromReply("ERR BOGUS what").code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// Lookup cache
// ---------------------------------------------------------------------------

TEST(LookupCacheTest, HitsMissesAndLruEviction) {
  // Budget fits two 21-byte entries (key + value), not three.
  LookupCache cache(/*max_bytes=*/44);
  std::string value;
  EXPECT_FALSE(cache.Get("a", &value));
  EXPECT_EQ(cache.misses(), 1u);

  cache.Put("a", std::string(20, 'A'));  // 21 bytes with its key
  cache.Put("b", std::string(20, 'B'));
  ASSERT_TRUE(cache.Get("a", &value));
  EXPECT_EQ(value, std::string(20, 'A'));
  EXPECT_EQ(cache.hits(), 1u);

  // "a" was just touched, so inserting a third entry evicts "b".
  cache.Put("c", std::string(20, 'C'));
  EXPECT_TRUE(cache.Get("a", &value));
  EXPECT_FALSE(cache.Get("b", &value));
  EXPECT_TRUE(cache.Get("c", &value));
  EXPECT_LE(cache.bytes(), 44u);
}

TEST(LookupCacheTest, OversizedValueAndZeroBudget) {
  LookupCache small(/*max_bytes=*/16);
  small.Put("k", std::string(100, 'v'));  // larger than the whole budget
  std::string value;
  EXPECT_FALSE(small.Get("k", &value));
  EXPECT_EQ(small.bytes(), 0u);

  LookupCache disabled(/*max_bytes=*/0);
  disabled.Put("k", "v");
  EXPECT_FALSE(disabled.Get("k", &value));

  LookupCache cleared(/*max_bytes=*/1024);
  cleared.Put("k", "v");
  cleared.Clear();
  EXPECT_FALSE(cleared.Get("k", &value));
  EXPECT_EQ(cleared.bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Network fault matrix
// ---------------------------------------------------------------------------

// Companion of durability_test.cc's fault matrix: that one drives every
// file-IO point and skips net.*; this one covers the network points with
// the same kinds. Each armed round trip must end in either success (the
// fault was transient or inapplicable to the point) or a clean Status —
// never a hang, crash, or silent corruption — and a disarmed retry must
// succeed, proving no fault leaks past Reset().
TEST(NetFaultTest, NetFaultMatrixCoversRegisteredPoints) {
  std::vector<std::string> net_points;
  for (const std::string_view point : util::RegisteredFaultPoints()) {
    if (point.rfind("net.", 0) == 0) net_points.emplace_back(point);
  }
  for (const char* required : {"net.accept", "net.recv", "net.send"}) {
    EXPECT_NE(std::find(net_points.begin(), net_points.end(), required),
              net_points.end())
        << required << " missing from RegisteredFaultPoints()";
  }

  // Fixed-size raw exchanges, not length-prefixed frames: a bit-flipped
  // length prefix would leave the (single-threaded) reader blocked on
  // bytes that never arrive, while a fixed-size read always completes —
  // faults here either fail the call or corrupt bytes in place.
  const auto round_trip = []() -> util::Status {
    const std::string request = "ping-request-pad!";  // 17 bytes
    const std::string reply = "pong-reply-paddin";
    auto listener = SocketListener::Listen("127.0.0.1", 0);
    if (!listener.ok()) return listener.status();
    auto client = SocketConn::Connect("127.0.0.1", listener->port());
    if (!client.ok()) return client.status();
    auto server = listener->Accept();
    if (!server.ok()) return server.status();
    util::Status status = client->SendAll(request.data(), request.size());
    if (!status.ok()) return status;
    std::string got(request.size(), '\0');
    auto full = server->RecvAll(got.data(), got.size());
    if (!full.ok()) return full.status();
    if (!*full || got != request) {
      return util::DataLossError("round trip corrupted the request");
    }
    status = server->SendAll(reply.data(), reply.size());
    if (!status.ok()) return status;
    got.assign(reply.size(), '\0');
    full = client->RecvAll(got.data(), got.size());
    if (!full.ok()) return full.status();
    if (!*full || got != reply) {
      return util::DataLossError("round trip corrupted the reply");
    }
    return util::OkStatus();
  };

  for (const std::string& point : net_points) {
    for (const char* kind : {"enospc", "eintr", "eagain", "short", "bitflip"}) {
      SCOPED_TRACE(point + ":" + kind);
      FaultGuard guard;
      auto& injector = util::FaultInjector::Global();
      ASSERT_TRUE(injector.Arm(point + ":1:" + kind).ok());

      const uint64_t retries_before = util::IoRetryCount();
      const util::Status status = round_trip();
      if (strcmp(kind, "eintr") == 0 || strcmp(kind, "eagain") == 0) {
        // Transient errnos are absorbed by the shared retry policy.
        EXPECT_TRUE(status.ok()) << status.ToString();
        EXPECT_GT(util::IoRetryCount(), retries_before);
      } else if (strcmp(kind, "bitflip") == 0 && point == "net.send") {
        // A corrupted byte still round-trips; catching it is the job of a
        // payload checksum, not the transport. It must not pass silently
        // as the original bytes, which the comparison above enforces.
        EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
      }
      // Every other combination: success (the kind is a no-op at this
      // point) or a clean error — reaching here at all is the assertion.

      injector.Reset();
      const util::Status clean = round_trip();
      EXPECT_TRUE(clean.ok()) << clean.ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// ResultReader against the in-memory result
// ---------------------------------------------------------------------------

// Aligns the generated restaurant pair once per process and saves the
// result snapshot; the reader tests compare point lookups against the
// authoritative in-memory AlignmentResult of the same run.
class ServiceResultTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    api::DatasetSpec spec;
    spec.profile = "restaurant";
    spec.output_prefix = TempPath("service_rest");
    spec.scale = 0.5;
    auto summary = api::GenerateDataset(spec);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    left_path_ = new std::string(summary->left_path);
    right_path_ = new std::string(summary->right_path);

    api::Session::Options options;
    options.config.max_iterations = 2;
    options.config.convergence_threshold = 0.0;
    session_ = new api::Session(options);
    ASSERT_TRUE(session_->LoadFromFiles(*left_path_, *right_path_).ok());
    ASSERT_TRUE(session_->Align().ok());
    snapshot_path_ = new std::string(TempPath("service_rest.snapshot"));
    ASSERT_TRUE(session_->SaveResult(*snapshot_path_).ok());
  }

  static const core::AlignmentResult& result() { return session_->result(); }
  static const std::string& snapshot_path() { return *snapshot_path_; }
  static const std::string& left_path() { return *left_path_; }
  static const std::string& right_path() { return *right_path_; }

 private:
  static std::string* left_path_;
  static std::string* right_path_;
  static std::string* snapshot_path_;
  static api::Session* session_;
};

std::string* ServiceResultTest::left_path_ = nullptr;
std::string* ServiceResultTest::right_path_ = nullptr;
std::string* ServiceResultTest::snapshot_path_ = nullptr;
api::Session* ServiceResultTest::session_ = nullptr;

TEST_F(ServiceResultTest, StatsMatchRun) {
  auto reader = ResultReader::Open(snapshot_path());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const ResultReader::Stats& stats = reader->stats();
  EXPECT_EQ(stats.num_iterations, 2u);
  EXPECT_FALSE(stats.has_partial);
  EXPECT_EQ(stats.num_instance_keys, result().instances.num_left_aligned());
  EXPECT_EQ(stats.num_relation_entries, result().relations.size());
  EXPECT_EQ(stats.num_class_entries, result().classes.entries().size());
  EXPECT_GT(stats.num_instance_keys, 0u);
  EXPECT_GT(stats.num_relation_entries, 0u);
}

TEST_F(ServiceResultTest, EntityLookupsMatchEquivalenceStore) {
  auto reader = ResultReader::Open(snapshot_path());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();

  const core::InstanceEquivalences& equiv = result().instances;
  ASSERT_GT(equiv.num_left_aligned(), 0u);
  equiv.ForEachMaxOfLeft([&](rdf::TermId left, const core::Candidate& best) {
    const auto stored = equiv.LeftToRight(left);
    const auto candidates = reader->LeftEntity(left);
    ASSERT_EQ(candidates.size(), stored.size());
    for (size_t i = 0; i < stored.size(); ++i) {
      EXPECT_EQ(candidates.others[i], stored[i].other);
      EXPECT_EQ(candidates.probs[i], stored[i].prob);
    }
    // Best-first order: the head is the maximal assignment.
    ASSERT_FALSE(candidates.empty());
    EXPECT_EQ(candidates.others[0], best.other);
    EXPECT_EQ(candidates.probs[0], best.prob);
  });

  equiv.ForEachMaxOfRight([&](rdf::TermId right, const core::Candidate& best) {
    const auto matches = reader->RightEntity(right);
    ASSERT_FALSE(matches.empty());
    EXPECT_EQ(matches[0].other, best.other);
    EXPECT_EQ(matches[0].prob, best.prob);
    const auto stored = equiv.RightToLeft(right);
    ASSERT_EQ(matches.size(), stored.size());
    for (size_t i = 0; i < stored.size(); ++i) {
      EXPECT_EQ(matches[i].other, stored[i].other);
      EXPECT_EQ(matches[i].prob, stored[i].prob);
    }
  });
}

TEST_F(ServiceResultTest, RelationLookupsMatchScoreTable) {
  auto reader = ResultReader::Open(snapshot_path());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();

  const auto& entries = result().relations.Entries();
  ASSERT_FALSE(entries.empty());
  size_t positive_subs = 0;
  for (const auto& entry : entries) {
    SCOPED_TRACE("sub=" + std::to_string(entry.sub) +
                 " super=" + std::to_string(entry.super) +
                 (entry.sub_is_left ? " left" : " right"));
    if (entry.sub > 0) ++positive_subs;
    const auto supers = reader->RelationSupers(entry.sub, entry.sub_is_left);
    const auto find = [&](rdf::RelId super, double score) {
      for (const auto& match : supers) {
        if (match.super == super && match.score == score) return true;
      }
      return false;
    };
    EXPECT_TRUE(find(entry.super, entry.score));
    // Pr(r ⊆ r') = Pr(r⁻¹ ⊆ r'⁻¹): the inverted pair answers identically.
    const auto inverted =
        reader->RelationSupers(-entry.sub, entry.sub_is_left);
    bool found_inverted = false;
    for (const auto& match : inverted) {
      if (match.super == -entry.super && match.score == entry.score) {
        found_inverted = true;
        break;
      }
    }
    EXPECT_TRUE(found_inverted);
    // Descending-score order, as served to clients.
    for (size_t i = 1; i < supers.size(); ++i) {
      EXPECT_GE(supers[i - 1].score, supers[i].score);
    }
  }
  // The canonical table stores positive subs, so this loop is the
  // regression test for positive-id range scans returning empty.
  EXPECT_GT(positive_subs, 0u);
}

TEST_F(ServiceResultTest, ClassLookupsMatchScoreTable) {
  auto reader = ResultReader::Open(snapshot_path());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();

  const auto& entries = result().classes.entries();
  ASSERT_FALSE(entries.empty());
  for (const auto& entry : entries) {
    const auto supers = reader->ClassSupers(entry.sub, entry.sub_is_left);
    bool found = false;
    for (const auto& match : supers) {
      if (match.super == entry.super && match.score == entry.score) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "class sub " << entry.sub << " lost its super";
    for (size_t i = 1; i < supers.size(); ++i) {
      EXPECT_GE(supers[i - 1].score, supers[i].score);
    }
  }
}

TEST_F(ServiceResultTest, StreamModeAgreesWithMmap) {
  auto mapped = ResultReader::Open(snapshot_path());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  auto streamed = ResultReader::Open(snapshot_path(),
                                     storage::SnapshotLoadMode::kStream);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();

  EXPECT_EQ(mapped->stats().num_instance_pairs,
            streamed->stats().num_instance_pairs);
  result().instances.ForEachMaxOfLeft([&](rdf::TermId left, const auto&) {
    const auto a = mapped->LeftEntity(left);
    const auto b = streamed->LeftEntity(left);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.others[i], b.others[i]);
      EXPECT_EQ(a.probs[i], b.probs[i]);
    }
  });
}

TEST_F(ServiceResultTest, MissingSnapshotIsNotFound) {
  auto reader = ResultReader::Open(TempPath("service_no_such.snapshot"));
  EXPECT_FALSE(reader.ok());
}

TEST_F(ServiceResultTest, CorruptSnapshotIsRejected) {
  const std::string bytes = ReadFileBytes(snapshot_path());
  ASSERT_GT(bytes.size(), 64u);

  // One flipped byte in the middle of the columns: the checksum pass at
  // open must catch it.
  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x40;
  const std::string corrupt_path = TempPath("service_corrupt.snapshot");
  WriteFileBytes(corrupt_path, corrupt);
  auto reader = ResultReader::Open(corrupt_path);
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);

  // A truncated file must be rejected too, not read past its end.
  const std::string truncated_path = TempPath("service_truncated.snapshot");
  WriteFileBytes(truncated_path, bytes.substr(0, bytes.size() / 2));
  auto truncated = ResultReader::Open(truncated_path);
  EXPECT_FALSE(truncated.ok());
}

TEST_F(ServiceResultTest, SnapshotServerSwapsGenerations) {
  service::SnapshotServer server(/*cache_bytes=*/1 << 16);
  EXPECT_EQ(server.reader(), nullptr);
  EXPECT_EQ(server.generation(), 0u);

  ASSERT_TRUE(server.Refresh(snapshot_path()).ok());
  auto first = server.reader();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(server.generation(), 1u);
  EXPECT_EQ(server.path(), snapshot_path());

  server.cache().Put("k", "v");
  ASSERT_TRUE(server.Refresh(snapshot_path()).ok());
  EXPECT_EQ(server.generation(), 2u);
  std::string value;
  EXPECT_FALSE(server.cache().Get("k", &value))
      << "refresh must clear stale cache entries";

  // A failed refresh keeps serving the old snapshot.
  EXPECT_FALSE(server.Refresh(TempPath("service_no_such.snapshot")).ok());
  EXPECT_EQ(server.generation(), 2u);
  EXPECT_NE(server.reader(), nullptr);
}

// ---------------------------------------------------------------------------
// In-process daemon
// ---------------------------------------------------------------------------

// Drives a Daemon through raw protocol frames — no CLI in between — so
// malformed requests and abrupt disconnects can be aimed precisely.
class ServiceDaemonTest : public ServiceResultTest {
 protected:
  service::Daemon::Config BaseConfig(const std::string& data_dir) {
    service::Daemon::Config config;
    config.num_handlers = 2;
    config.queue.data_dir = TempPath(data_dir);
    // A previous (aborted) run's job state would be auto-resumed and
    // pollute LIST; every test starts from an empty data dir.
    std::filesystem::remove_all(config.queue.data_dir);
    config.queue.left_path = left_path();
    config.queue.right_path = right_path();
    config.queue.base_options.config.max_iterations = 2;
    config.queue.base_options.config.convergence_threshold = 0.0;
    config.queue.checkpoint_interval_seconds = 0.001;
    return config;
  }

  // A much larger restaurant pair for the tests that must catch a job
  // mid-run: at this scale one iteration takes ~100ms+, so a single-core
  // machine (where the busy worker starves the client threads) still
  // schedules the client well before the job finishes. Generated on first
  // use and shared by the suite.
  static const std::pair<std::string, std::string>& SlowPair() {
    static const auto* pair = [] {
      api::DatasetSpec spec;
      spec.profile = "restaurant";
      spec.output_prefix = TempPath("service_rest_slow");
      spec.scale = 16.0;
      auto summary = api::GenerateDataset(spec);
      if (!summary.ok()) {
        ADD_FAILURE() << summary.status().ToString();
        return new std::pair<std::string, std::string>();
      }
      return new std::pair<std::string, std::string>(summary->left_path,
                                                     summary->right_path);
    }();
    return *pair;
  }

  service::Daemon::Config SlowConfig(const std::string& data_dir) {
    service::Daemon::Config config = BaseConfig(data_dir);
    config.queue.left_path = SlowPair().first;
    config.queue.right_path = SlowPair().second;
    return config;
  }

  static SocketConn Dial(const service::Daemon& daemon) {
    auto conn =
        SocketConn::Connect("127.0.0.1", static_cast<uint16_t>(daemon.port()));
    EXPECT_TRUE(conn.ok()) << conn.status().ToString();
    return std::move(*conn);
  }

  // One request, one reply.
  static std::string Call(SocketConn& conn, const std::string& request) {
    EXPECT_TRUE(WriteFrame(conn, request, kDefaultMaxFrameBytes).ok());
    std::string reply;
    auto more = ReadFrame(conn, &reply, kDefaultMaxFrameBytes);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    EXPECT_TRUE(!more.ok() || *more) << "daemon closed instead of replying";
    return reply;
  }

  static std::string Submit(SocketConn& conn, const std::string& overrides) {
    const std::string reply =
        Call(conn, overrides.empty() ? "SUBMIT" : "SUBMIT " + overrides);
    EXPECT_EQ(reply.rfind("OK ", 0), 0u) << reply;
    return reply.substr(3);
  }

  // Polls STATUS until the job's state matches. ~10s ceiling.
  static void AwaitState(SocketConn& conn, const std::string& id,
                         const std::string& state) {
    for (int i = 0; i < 1000; ++i) {
      const std::string reply = Call(conn, "STATUS " + id);
      if (reply.find(" state=" + state + " ") != std::string::npos ||
          reply.find(" state=" + state + "\n") != std::string::npos) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    FAIL() << "job " << id << " never reached state " << state;
  }
};

TEST_F(ServiceDaemonTest, PingMalformedVerbsAndShutdown) {
  service::Daemon daemon(BaseConfig("svc_ping"));
  ASSERT_TRUE(daemon.Start().ok());
  SocketConn conn = Dial(daemon);

  EXPECT_EQ(Call(conn, "PING"), "OK pong");

  // Malformed requests get an ERR reply on a connection that stays usable.
  EXPECT_EQ(StatusFromReply(Call(conn, "")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StatusFromReply(Call(conn, "FROBNICATE now")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StatusFromReply(Call(conn, "STATUS")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StatusFromReply(Call(conn, "STATUS job-999")).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(StatusFromReply(Call(conn, "CANCEL job-999")).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(StatusFromReply(Call(conn, "LOOKUP entity left x y")).code(),
            StatusCode::kFailedPrecondition)
      << "lookup before any result must be FAILED_PRECONDITION";
  EXPECT_EQ(StatusFromReply(Call(conn, "LOOKUP entity nowhere x")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Call(conn, "PING"), "OK pong");

  EXPECT_EQ(Call(conn, "SHUTDOWN"), "OK shutting down");
  daemon.Wait();  // returns because SHUTDOWN requested it
  daemon.Stop();
}

TEST_F(ServiceDaemonTest, QueryPatternsAndMalformedFrames) {
  service::Daemon daemon(BaseConfig("svc_query"));
  ASSERT_TRUE(daemon.Start().ok());
  SocketConn conn = Dial(daemon);

  // "OK <n>" followed by n tab-separated rows; returns n.
  const auto match_count = [](const std::string& reply) -> long long {
    EXPECT_EQ(reply.rfind("OK ", 0), 0u) << reply;
    const size_t eol = reply.find('\n');
    long long n = 0;
    EXPECT_TRUE(util::ParseFullInt64(
        reply.substr(3, eol == std::string::npos ? std::string::npos : eol - 3),
        &n))
        << reply;
    long long lines = 0;
    for (char c : reply) lines += c == '\n';
    EXPECT_EQ(lines, n) << reply;
    return n;
  };

  // QUERY answers before any job has produced a result snapshot: it scans
  // the ontology pair itself. Default limit is 100.
  const std::string all = Call(conn, "QUERY left ? ? ?");
  EXPECT_EQ(match_count(all), 100);

  // An explicit 0 lifts the limit; an explicit cap truncates.
  const long long total = match_count(Call(conn, "QUERY left ? ? ? 0"));
  EXPECT_GT(total, 100);
  EXPECT_EQ(match_count(Call(conn, "QUERY left ? ? ? 5")), 5);

  // A bound relation, its inverse spelling, and the ignored-position form
  // all agree on the underlying statement set.
  const long long bound =
      match_count(Call(conn, "QUERY left ? r1:category ? 0"));
  EXPECT_GT(bound, 0);
  EXPECT_EQ(match_count(Call(conn, "QUERY left ? -r1:category ? 0")), bound);
  const long long collapsed =
      match_count(Call(conn, "QUERY left _ r1:category ? 0"));
  EXPECT_GT(collapsed, 0);
  EXPECT_LE(collapsed, bound);

  // A fully-bound subject probe returns that entity's statements only.
  const std::string about = Call(conn, "QUERY left r1:address_0 ? ? 0");
  const long long about_n = match_count(about);
  EXPECT_GT(about_n, 0);
  EXPECT_NE(about.find("r1:address_0\t"), std::string::npos) << about;

  // Replays are served from the generation-keyed cache byte-identically.
  EXPECT_EQ(Call(conn, "QUERY left r1:address_0 ? ? 0"), about);

  // The right side resolves its own relation namespace.
  EXPECT_GT(match_count(Call(conn, "QUERY right ? ? ?")), 0);

  // Malformed frames: each gets an ERR reply and the connection survives.
  EXPECT_EQ(StatusFromReply(Call(conn, "QUERY")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StatusFromReply(Call(conn, "QUERY left ? ?")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StatusFromReply(Call(conn, "QUERY left ? ? ? 7 extra")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StatusFromReply(Call(conn, "QUERY middle ? ? ?")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StatusFromReply(Call(conn, "QUERY left ? ? ? -3")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StatusFromReply(Call(conn, "QUERY left ? ? ? many")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StatusFromReply(Call(conn, "QUERY left no:such_term ? ?")).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(StatusFromReply(Call(conn, "QUERY left ? no:such_rel ?")).code(),
            StatusCode::kNotFound);
  // r1:category names a *left* relation; the right side must not see it.
  EXPECT_EQ(StatusFromReply(Call(conn, "QUERY right ? r1:category ?")).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(StatusFromReply(Call(conn, "QUERY left #999999999 ? ?")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StatusFromReply(Call(conn, "QUERY left ? #0 ?")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Call(conn, "PING"), "OK pong");

  daemon.Stop();
}

TEST_F(ServiceDaemonTest, SubmitWatchLookupLifecycle) {
  service::Daemon daemon(BaseConfig("svc_lifecycle"));
  ASSERT_TRUE(daemon.Start().ok());
  SocketConn conn = Dial(daemon);

  const std::string id = Submit(conn, "");

  // WATCH from a second connection streams EVT frames until END.
  SocketConn watcher = Dial(daemon);
  ASSERT_TRUE(WriteFrame(watcher, "WATCH " + id, kDefaultMaxFrameBytes).ok());
  bool saw_state = false, saw_iteration = false, saw_shard = false;
  std::string terminal;
  for (;;) {
    std::string frame;
    auto more = ReadFrame(watcher, &frame, kDefaultMaxFrameBytes);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    ASSERT_TRUE(*more) << "stream closed without an END frame";
    if (frame.rfind("END ", 0) == 0) {
      terminal = frame.substr(4);
      break;
    }
    ASSERT_EQ(frame.rfind("EVT " + id + " ", 0), 0u) << frame;
    const std::string event = frame.substr(5 + id.size());
    saw_state |= event.rfind("state ", 0) == 0;
    saw_iteration |= event.rfind("iteration ", 0) == 0;
    saw_shard |= event.rfind("shard ", 0) == 0;
  }
  EXPECT_EQ(terminal, "done");
  EXPECT_TRUE(saw_state);
  EXPECT_TRUE(saw_iteration);
  EXPECT_TRUE(saw_shard);

  const std::string status = Call(conn, "STATUS " + id);
  EXPECT_NE(status.find(" state=done "), std::string::npos) << status;

  // The finished job's snapshot is served: lookups answer and agree with
  // the in-memory result of the identical config.
  const std::string lookup = Call(conn, "LOOKUP entity left r1:address_0");
  EXPECT_EQ(lookup.rfind("OK ", 0), 0u) << lookup;
  EXPECT_NE(lookup.find('\t'), std::string::npos)
      << "expected at least one scored candidate line: " << lookup;
  const std::string relation = Call(conn, "LOOKUP relation left r1:category");
  EXPECT_EQ(relation.rfind("OK ", 0), 0u) << relation;
  EXPECT_NE(relation, "OK 0") << "positive relation id served no supers";
  // Cached replies must be byte-identical to computed ones.
  EXPECT_EQ(Call(conn, "LOOKUP relation left r1:category"), relation);

  const std::string result_line = Call(conn, "RESULT");
  EXPECT_EQ(result_line.rfind("OK generation=1 ", 0), 0u) << result_line;
  EXPECT_NE(result_line.find("partial=0"), std::string::npos) << result_line;

  const std::string list = Call(conn, "LIST");
  EXPECT_EQ(list.rfind("OK 1\n", 0), 0u) << list;
  EXPECT_NE(list.find(id + " done"), std::string::npos) << list;

  daemon.Stop();
}

TEST_F(ServiceDaemonTest, CancelQueuedAndRunningJobs) {
  service::Daemon daemon(SlowConfig("svc_cancel"));
  ASSERT_TRUE(daemon.Start().ok());
  SocketConn conn = Dial(daemon);

  // The single worker runs jobs in order: the second stays queued and
  // must cancel instantly; the first cancels cooperatively mid-run. The
  // iteration cap bounds the test if a cancel were dropped.
  const std::string running = Submit(conn, "max-iterations=50");
  const std::string queued = Submit(conn, "max-iterations=50");

  const std::string cancel_queued = Call(conn, "CANCEL " + queued);
  EXPECT_EQ(cancel_queued.rfind("OK cancelling", 0), 0u) << cancel_queued;
  AwaitState(conn, queued, "cancelled");

  AwaitState(conn, running, "running");
  EXPECT_EQ(Call(conn, "CANCEL " + running).rfind("OK cancelling", 0), 0u);
  AwaitState(conn, running, "cancelled");

  // Cancelling a terminal job is refused.
  EXPECT_EQ(StatusFromReply(Call(conn, "CANCEL " + queued)).code(),
            StatusCode::kFailedPrecondition);

  daemon.Stop();
}

TEST_F(ServiceDaemonTest, SurvivesClientDisconnectMidWatch) {
  service::Daemon daemon(SlowConfig("svc_disconnect"));
  ASSERT_TRUE(daemon.Start().ok());
  SocketConn conn = Dial(daemon);

  const std::string id = Submit(conn, "max-iterations=50");
  {
    // Start a WATCH stream, read a single frame, vanish without goodbye.
    SocketConn watcher = Dial(daemon);
    ASSERT_TRUE(
        WriteFrame(watcher, "WATCH " + id, kDefaultMaxFrameBytes).ok());
    std::string frame;
    auto more = ReadFrame(watcher, &frame, kDefaultMaxFrameBytes);
    ASSERT_TRUE(more.ok() && *more) << more.status().ToString();
    watcher.Close();
  }

  // The daemon keeps serving other connections and the job keeps running.
  EXPECT_EQ(Call(conn, "PING"), "OK pong");
  EXPECT_EQ(Call(conn, "CANCEL " + id).rfind("OK cancelling", 0), 0u);
  AwaitState(conn, id, "cancelled");

  daemon.Stop();
}

TEST_F(ServiceDaemonTest, ServesPreexistingResultAtStartup) {
  service::Daemon::Config config = BaseConfig("svc_preloaded");
  config.serve_result = snapshot_path();
  service::Daemon daemon(config);
  ASSERT_TRUE(daemon.Start().ok());
  SocketConn conn = Dial(daemon);

  // No job has run, yet lookups answer from the preloaded snapshot.
  const std::string lookup = Call(conn, "LOOKUP entity left r1:address_0");
  EXPECT_EQ(lookup.rfind("OK ", 0), 0u) << lookup;
  const std::string result_line = Call(conn, "RESULT");
  EXPECT_EQ(result_line.rfind("OK generation=1 ", 0), 0u) << result_line;

  EXPECT_EQ(StatusFromReply(Call(conn, "LOOKUP entity left no:such_name"))
                .code(),
            StatusCode::kNotFound);

  daemon.Stop();
}

}  // namespace
}  // namespace paris
