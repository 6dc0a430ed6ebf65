#include "net/ingest_server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <thread>
#include <vector>

#include "actors/library.h"
#include "core/clock.h"
#include "directors/pncwf_director.h"
#include "net/frame.h"
#include "stream/stream_source.h"
#include "stream/trace.h"

namespace cwf::net {
namespace {

int ConnectTo(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  CWF_CHECK(fd >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  CWF_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
            0);
  return fd;
}

void SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::write(fd, data.data() + sent, data.size() - sent);
    CWF_CHECK(n > 0);
    sent += static_cast<size_t>(n);
  }
}

void WaitFor(const std::function<bool()>& cond, int timeout_ms = 5000) {
  for (int i = 0; i < timeout_ms; ++i) {
    if (cond()) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(IngestServerTest, LineProtocolAcrossShards) {
  auto channel = std::make_shared<PushChannel>();
  RealClock clock;
  IngestServer::Options options;
  options.shards = 3;
  IngestServer server(&clock, options);
  server.AddChannel(0, channel, "feed");
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_GT(server.port(), 0);

  std::vector<int> fds;
  for (int i = 0; i < 6; ++i) {
    fds.push_back(ConnectTo(server.port()));
  }
  WaitFor([&] { return server.connections_live() >= 6; });
  EXPECT_EQ(server.connections_accepted(), 6u);
  for (int i = 0; i < 6; ++i) {
    SendAll(fds[i], "client=i:" + std::to_string(i) + "\n");
  }
  WaitFor([&] { return server.tuples_received() >= 6; });
  EXPECT_EQ(server.tuples_received(), 6u);
  EXPECT_EQ(server.channel_tuples(0), 6u);
  for (int fd : fds) {
    ::close(fd);
  }
  WaitFor([&] { return server.connections_live() == 0; });
  EXPECT_EQ(server.connections_live(), 0);
  server.Stop();
  EXPECT_TRUE(channel->closed());
  EXPECT_EQ(channel->Pending(), 6u);
}

TEST(IngestServerTest, BinaryFramesRouteByChannelId) {
  auto alpha = std::make_shared<PushChannel>();
  auto beta = std::make_shared<PushChannel>();
  RealClock clock;
  IngestServer server(&clock);
  server.AddChannel(0, alpha, "alpha");
  server.AddChannel(7, beta, "beta");
  ASSERT_TRUE(server.Start(0).ok());

  const int fd = ConnectTo(server.port());
  SendAll(fd, EncodeFrame(0, "a=i:1") + EncodeFrame(7, "b=i:2") +
                  EncodeFrame(7, "b=i:3"));
  WaitFor([&] { return server.tuples_received() >= 3; });
  ::close(fd);
  EXPECT_EQ(server.channel_tuples(0), 1u);
  EXPECT_EQ(server.channel_tuples(7), 2u);
  auto from_beta = beta->PopArrived(Timestamp::Max());
  ASSERT_EQ(from_beta.size(), 2u);
  EXPECT_EQ(from_beta[0].token.Field("b").AsInt(), 2);
  EXPECT_EQ(from_beta[1].token.Field("b").AsInt(), 3);
  server.Stop();
}

TEST(IngestServerTest, MixedProtocolsOnOnePort) {
  auto channel = std::make_shared<PushChannel>();
  RealClock clock;
  IngestServer server(&clock);
  server.AddChannel(0, channel);
  ASSERT_TRUE(server.Start(0).ok());

  const int line_fd = ConnectTo(server.port());
  const int frame_fd = ConnectTo(server.port());
  SendAll(line_fd, "text=i:1\n");
  SendAll(frame_fd, EncodeFrame(0, "bin=i:2"));
  WaitFor([&] { return server.tuples_received() >= 2; });
  EXPECT_EQ(server.tuples_received(), 2u);
  ::close(line_fd);
  ::close(frame_fd);
  server.Stop();
}

TEST(IngestServerTest, ByteByByteDeliveryAndEofFlush) {
  auto channel = std::make_shared<PushChannel>();
  RealClock clock;
  IngestServer server(&clock);
  server.AddChannel(0, channel);
  ASSERT_TRUE(server.Start(0).ok());

  const int fd = ConnectTo(server.port());
  // Lines of different lengths split one byte per write must reassemble
  // exactly, and the final tuple has NO trailing newline: the EOF flush
  // must still deliver it (the old listener dropped it).
  const std::string wire = "a=i:1\nbb=i:22\nccc=i:333";
  for (char c : wire) {
    SendAll(fd, std::string(1, c));
  }
  WaitFor([&] { return server.tuples_received() >= 2; });
  EXPECT_EQ(server.tuples_received(), 2u);  // unterminated tail still held
  ::close(fd);
  WaitFor([&] { return server.tuples_received() >= 3; });
  EXPECT_EQ(server.tuples_received(), 3u);
  EXPECT_EQ(server.parse_errors(), 0u);
  auto batch = channel->PopArrived(Timestamp::Max());
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].token.Field("a").AsInt(), 1);
  EXPECT_EQ(batch[1].token.Field("bb").AsInt(), 22);
  EXPECT_EQ(batch[2].token.Field("ccc").AsInt(), 333);
  server.Stop();
}

// The TcpListenerTest cases are the line-protocol regressions of the old
// TCP line listener, kept under their names now that IngestServer is the
// only TCP listener.
TEST(TcpListenerTest, ByteByByteWritesReassembleLines) {
  // Regression: lines split at arbitrary buffer boundaries — including one
  // byte per segment — must reassemble exactly.
  auto channel = std::make_shared<PushChannel>();
  RealClock clock;
  IngestServer server(&clock);
  server.AddChannel(0, channel);
  ASSERT_TRUE(server.Start(0).ok());

  const int fd = ConnectTo(server.port());
  const std::string wire = "a=i:1\nbb=i:22\nccc=i:333\n";
  for (char c : wire) {
    SendAll(fd, std::string(1, c));
  }
  WaitFor([&] { return server.tuples_received() >= 3; });
  ::close(fd);
  EXPECT_EQ(server.tuples_received(), 3u);
  EXPECT_EQ(server.parse_errors(), 0u);
  auto batch = channel->PopArrived(Timestamp::Max());
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].token.Field("a").AsInt(), 1);
  EXPECT_EQ(batch[1].token.Field("bb").AsInt(), 22);
  EXPECT_EQ(batch[2].token.Field("ccc").AsInt(), 333);
  server.Stop();
}

TEST(TcpListenerTest, FinalLineWithoutNewlineDeliveredAtEof) {
  // Regression: the historical listener silently dropped a trailing line
  // when the client closed without a final '\n'.
  auto channel = std::make_shared<PushChannel>();
  RealClock clock;
  IngestServer server(&clock);
  server.AddChannel(0, channel);
  ASSERT_TRUE(server.Start(0).ok());

  const int fd = ConnectTo(server.port());
  SendAll(fd, "first=i:1\nlast=i:2");  // no trailing newline
  WaitFor([&] { return server.tuples_received() >= 1; });
  EXPECT_EQ(server.tuples_received(), 1u);
  ::close(fd);  // EOF must flush the unterminated tail
  WaitFor([&] { return server.tuples_received() >= 2; });
  EXPECT_EQ(server.tuples_received(), 2u);
  auto batch = channel->PopArrived(Timestamp::Max());
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[1].token.Field("last").AsInt(), 2);
  server.Stop();
}

TEST(IngestServerTest, ParsesLinesIntoChannel) {
  auto channel = std::make_shared<PushChannel>();
  RealClock clock;
  IngestServer server(&clock);
  server.AddChannel(0, channel);
  ASSERT_TRUE(server.Start(0).ok());

  const int fd = ConnectTo(server.port());
  SendAll(fd, "car=i:7;speed=d:55.5\nvalue=i:42\n");
  WaitFor([&] { return server.tuples_received() >= 2; });
  ::close(fd);
  EXPECT_EQ(server.tuples_received(), 2u);
  EXPECT_EQ(server.parse_errors(), 0u);
  auto batch = channel->PopArrived(Timestamp::Max());
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].token.Field("car").AsInt(), 7);
  EXPECT_DOUBLE_EQ(batch[0].token.Field("speed").AsDouble(), 55.5);
  EXPECT_EQ(batch[1].token.Field("value").AsInt(), 42);
  server.Stop();
}

TEST(IngestServerTest, MalformedLinesCountedAndDropped) {
  auto channel = std::make_shared<PushChannel>();
  RealClock clock;
  IngestServer server(&clock);
  server.AddChannel(0, channel);
  ASSERT_TRUE(server.Start(0).ok());

  const int fd = ConnectTo(server.port());
  SendAll(fd, "no_equals_sign\nok=i:1\n");
  WaitFor([&] { return server.tuples_received() >= 1; });
  ::close(fd);
  EXPECT_EQ(server.parse_errors(), 1u);
  EXPECT_EQ(server.tuples_received(), 1u);
  auto batch = channel->PopArrived(Timestamp::Max());
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].token.Field("ok").AsInt(), 1);
  server.Stop();
}

TEST(IngestServerTest, MalformedNumberInFrameIsAParseError) {
  // A number that does not parse must count as a parse error and leave the
  // connection (and the process) alive for the next frame.
  auto channel = std::make_shared<PushChannel>();
  RealClock clock;
  IngestServer server(&clock);
  server.AddChannel(0, channel);
  ASSERT_TRUE(server.Start(0).ok());

  const int fd = ConnectTo(server.port());
  SendAll(fd, EncodeFrame(0, "x=i:abc") + EncodeFrame(0, "ok=i:7"));
  WaitFor([&] { return server.tuples_received() >= 1; });
  ::close(fd);
  EXPECT_EQ(server.parse_errors(), 1u);
  EXPECT_EQ(server.tuples_received(), 1u);
  auto batch = channel->PopArrived(Timestamp::Max());
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].token.Field("ok").AsInt(), 7);
  server.Stop();
}

TEST(IngestServerTest, MultipleClientsAndPartialWrites) {
  auto channel = std::make_shared<PushChannel>();
  RealClock clock;
  IngestServer server(&clock);
  server.AddChannel(0, channel);
  ASSERT_TRUE(server.Start(0).ok());

  const int a = ConnectTo(server.port());
  const int b = ConnectTo(server.port());
  // A line split across two writes must reassemble per connection even
  // when another client's complete line lands in between.
  SendAll(a, "k=i:");
  SendAll(b, "k=i:2\n");
  SendAll(a, "1\n");
  WaitFor([&] { return server.tuples_received() >= 2; });
  ::close(a);
  ::close(b);
  EXPECT_EQ(server.tuples_received(), 2u);
  EXPECT_EQ(server.parse_errors(), 0u);
  server.Stop();
}

TEST(IngestServerTest, StartTwiceRejected) {
  auto channel = std::make_shared<PushChannel>();
  RealClock clock;
  IngestServer server(&clock);
  server.AddChannel(0, channel);
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_EQ(server.Start(0).code(), StatusCode::kFailedPrecondition);
  server.Stop();
}

TEST(IngestServerTest, EndToEndIntoThreadedWorkflow) {
  // Network client -> IngestServer -> StreamSourceActor -> map -> sink, all
  // live under the OS-thread PNCWF director.
  auto channel = std::make_shared<PushChannel>();
  RealClock clock;
  IngestServer server(&clock);
  server.AddChannel(0, channel);
  ASSERT_TRUE(server.Start(0).ok());

  Workflow wf("net");
  auto* src = wf.AddActor<StreamSourceActor>("src", channel);
  auto* map = wf.AddActor<MapActor>("map", [](const Token& t) {
    return Token(t.Field("v").AsInt() * 10);
  });
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(src->out(), map->in()).ok());
  ASSERT_TRUE(wf.Connect(map->out(), sink->in()).ok());

  PNCWFOptions opts;
  opts.mode = PNCWFMode::kOsThreads;
  PNCWFDirector d(opts);
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());

  std::thread producer([&] {
    const int fd = ConnectTo(server.port());
    for (int i = 1; i <= 5; ++i) {
      SendAll(fd, "v=i:" + std::to_string(i) + "\n");
    }
    ::close(fd);
    WaitFor([&] { return server.tuples_received() >= 5; });
    server.Stop();  // closes the channel -> workflow drains and exits
  });
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  producer.join();

  auto got = sink->TakeSnapshot();
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[4].token.AsInt(), 50);
}

TEST(IngestServerTest, BackpressureZeroLossOnBoundedChannel) {
  auto channel = std::make_shared<PushChannel>();
  channel->SetCapacity(8);
  RealClock clock;
  IngestServer::Options options;
  options.shards = 2;
  options.staging_limit = 4;
  IngestServer server(&clock, options);
  server.AddChannel(0, channel);
  ASSERT_TRUE(server.Start(0).ok());

  constexpr int kTuples = 500;
  std::thread producer([&] {
    const int fd = ConnectTo(server.port());
    for (int i = 0; i < kTuples; ++i) {
      SendAll(fd, "seq=i:" + std::to_string(i) + "\n");
    }
    ::close(fd);
  });

  // Slow consumer: the 8-tuple bound forces the connection through
  // stage -> pause -> resume cycles while we drain.
  std::vector<TraceEntry> got;
  while (got.size() < kTuples) {
    auto batch = channel->PopArrived(Timestamp::Max(), 4);
    for (auto& e : batch) {
      got.push_back(std::move(e));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  producer.join();

  ASSERT_EQ(got.size(), static_cast<size_t>(kTuples));
  for (int i = 0; i < kTuples; ++i) {
    EXPECT_EQ(got[i].token.Field("seq").AsInt(), i) << "order broken at " << i;
  }
  EXPECT_EQ(server.tuples_received(), static_cast<uint64_t>(kTuples));
  EXPECT_GT(server.backpressure_pauses(), 0u);
  EXPECT_EQ(server.connections_paused(), 0);
  EXPECT_EQ(server.staged_dropped(), 0u);
  server.Stop();
}

TEST(IngestServerTest, PeerResetWhilePausedFinishesConnection) {
  auto channel = std::make_shared<PushChannel>();
  channel->SetCapacity(1);
  RealClock clock;
  IngestServer::Options options;
  options.shards = 1;
  options.staging_limit = 1;
  IngestServer server(&clock, options);
  server.AddChannel(0, channel);
  ASSERT_TRUE(server.Start(0).ok());

  const int fd = ConnectTo(server.port());
  SendAll(fd, "a=i:1\nb=i:2\nc=i:3\n");  // capacity 1 + staging 1 => pause
  WaitFor([&] { return server.connections_paused() >= 1; });
  ASSERT_EQ(server.connections_paused(), 1);

  // Abort the client: SO_LINGER{1,0} turns close() into a RST. The paused
  // fd is registered with events=0, but epoll still reports the error
  // condition; the shard must consume it and finish the connection — a
  // paused connection that ignores EPOLLERR/EPOLLHUP leaves the
  // level-triggered loop spinning and the pause gauge stuck at 1.
  struct linger lg {};
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  ::close(fd);
  WaitFor([&] { return server.connections_paused() == 0; });
  EXPECT_EQ(server.connections_paused(), 0);
  server.Stop();
}

TEST(IngestServerTest, MaxConnectionsRejectsExtras) {
  auto channel = std::make_shared<PushChannel>();
  RealClock clock;
  IngestServer::Options options;
  options.max_connections = 2;
  IngestServer server(&clock, options);
  server.AddChannel(0, channel);
  ASSERT_TRUE(server.Start(0).ok());

  const int a = ConnectTo(server.port());
  const int b = ConnectTo(server.port());
  WaitFor([&] { return server.connections_live() >= 2; });
  const int c = ConnectTo(server.port());
  WaitFor([&] { return server.connections_rejected() >= 1; });
  EXPECT_EQ(server.connections_rejected(), 1u);
  // The rejected socket reads EOF.
  char buf[8];
  EXPECT_EQ(::read(c, buf, sizeof(buf)), 0);
  ::close(a);
  ::close(b);
  ::close(c);
  server.Stop();
}

TEST(IngestServerTest, SchemaViolationsRejectedNotFatal) {
  auto channel = std::make_shared<PushChannel>();
  RecordSchema schema;
  schema.Int("car");
  channel->SetExpectedSchema(TokenType::Record(schema), "typed_feed");
  RealClock clock;
  IngestServer server(&clock);
  server.AddChannel(0, channel);
  ASSERT_TRUE(server.Start(0).ok());

  const int fd = ConnectTo(server.port());
  SendAll(fd, "wrong=s:field\ncar=i:5\n");
  WaitFor([&] { return server.tuples_received() >= 1; });
  ::close(fd);
  EXPECT_EQ(server.schema_rejects(), 1u);
  EXPECT_EQ(server.tuples_received(), 1u);  // the server is still alive
  server.Stop();
}

TEST(IngestServerTest, FrameViolationDropsConnection) {
  auto channel = std::make_shared<PushChannel>();
  RealClock clock;
  IngestServer server(&clock);
  server.AddChannel(0, channel);
  ASSERT_TRUE(server.Start(0).ok());

  const int fd = ConnectTo(server.port());
  // Valid frame, then garbage where the next magic byte should be.
  SendAll(fd, EncodeFrame(0, "ok=i:1") + std::string(16, 'Z'));
  WaitFor([&] { return server.frame_errors() >= 1; });
  EXPECT_EQ(server.frame_errors(), 1u);
  EXPECT_EQ(server.tuples_received(), 1u);
  WaitFor([&] { return server.connections_live() == 0; });
  EXPECT_EQ(server.connections_live(), 0);
  ::close(fd);
  server.Stop();
}

TEST(IngestServerTest, OversizedLineDropsConnection) {
  auto channel = std::make_shared<PushChannel>();
  RealClock clock;
  IngestServer server(&clock);
  server.AddChannel(0, channel);
  ASSERT_TRUE(server.Start(0).ok());

  const int fd = ConnectTo(server.port());
  // A newline-free stream past kMaxLineBytes must poison the connection
  // instead of growing its buffer without bound.
  const std::string chunk(8192, 'x');
  size_t sent = 0;
  while (sent <= kMaxLineBytes + chunk.size()) {
    // MSG_NOSIGNAL: the server closes on us mid-stream by design, and a
    // late write must fail with EPIPE instead of raising SIGPIPE.
    const ssize_t n = ::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      break;
    }
    sent += static_cast<size_t>(n);
  }
  WaitFor([&] { return server.frame_errors() >= 1; });
  EXPECT_GE(server.frame_errors(), 1u);
  EXPECT_EQ(server.tuples_received(), 0u);
  WaitFor([&] { return server.connections_live() == 0; });
  EXPECT_EQ(server.connections_live(), 0);
  ::close(fd);
  server.Stop();
}

TEST(IngestServerTest, RestartAfterStopServesAgain) {
  auto first = std::make_shared<PushChannel>();
  first->SetCapacity(2);  // small bound: arm the space-available callback
  RealClock clock;
  IngestServer::Options options;
  options.close_channels_on_stop = false;
  IngestServer server(&clock, options);
  server.AddChannel(0, first);
  ASSERT_TRUE(server.Start(0).ok());
  {
    const int fd = ConnectTo(server.port());
    SendAll(fd, "a=i:1\nb=i:2\nc=i:3\n");  // third tuple stages on the bound
    WaitFor([&] { return server.tuples_received() >= 2; });
    (void)first->PopArrived(Timestamp::Max());  // fires the space callback
    WaitFor([&] { return server.tuples_received() >= 3; });
    ::close(fd);
    WaitFor([&] { return server.connections_live() == 0; });
  }
  server.Stop();

  // The same server restarts cleanly (the first generation's callbacks
  // must not leave anything dangling over Start's shard teardown).
  ASSERT_TRUE(server.Start(0).ok());
  const int fd = ConnectTo(server.port());
  SendAll(fd, "d=i:4\n");
  WaitFor([&] { return server.tuples_received() >= 4; });
  EXPECT_EQ(server.tuples_received(), 4u);
  ::close(fd);
  server.Stop();
}

TEST(IngestServerTest, UnknownFrameChannelCountedAndDropped) {
  auto channel = std::make_shared<PushChannel>();
  RealClock clock;
  IngestServer server(&clock);
  server.AddChannel(0, channel);
  ASSERT_TRUE(server.Start(0).ok());

  const int fd = ConnectTo(server.port());
  SendAll(fd, EncodeFrame(42, "lost=i:1") + EncodeFrame(0, "kept=i:2"));
  WaitFor([&] { return server.tuples_received() >= 1; });
  EXPECT_EQ(server.unknown_channel_frames(), 1u);
  EXPECT_EQ(server.tuples_received(), 1u);
  ::close(fd);
  server.Stop();
}

TEST(IngestServerTest, AccessLogRecordsLifecycle) {
  const std::string path = ::testing::TempDir() + "/ingest_access_test.log";
  std::remove(path.c_str());
  auto channel = std::make_shared<PushChannel>();
  RealClock clock;
  IngestServer::Options options;
  options.access_log_path = path;
  IngestServer server(&clock, options);
  server.AddChannel(0, channel);
  ASSERT_TRUE(server.Start(0).ok());

  const int fd = ConnectTo(server.port());
  SendAll(fd, "x=i:1\n");
  WaitFor([&] { return server.tuples_received() >= 1; });
  ::close(fd);
  WaitFor([&] { return server.connections_live() == 0; });
  server.Stop();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("event=accept"), std::string::npos);
  EXPECT_NE(contents.find("event=close"), std::string::npos);
  std::remove(path.c_str());
}

TEST(IngestServerTest, StopIsIdempotentAndClosesChannels) {
  auto channel = std::make_shared<PushChannel>();
  RealClock clock;
  IngestServer server(&clock);
  server.AddChannel(0, channel);
  ASSERT_TRUE(server.Start(0).ok());
  server.Stop();
  server.Stop();
  EXPECT_TRUE(channel->closed());
  EXPECT_FALSE(server.running());
}

TEST(IngestServerTest, StartRequiresChannels) {
  RealClock clock;
  IngestServer server(&clock);
  EXPECT_FALSE(server.Start(0).ok());
}

}  // namespace
}  // namespace cwf::net
