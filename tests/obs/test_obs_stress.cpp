// Concurrency stress for the observability plane's two threaded edges:
// ExpoServer::stop racing requests in flight (scrapers hammering the
// server, and a client that sends half a request and then goes silent),
// and TracerRegistry ring registration racing thread exit while a reader
// merges the rings. A race shows up here as a hang, a lost span or
// (under TSan) a race report.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "obs/server.hpp"
#include "obs/trace.hpp"

namespace maton::obs {
namespace {

#if !defined(MATON_OBS_OFF)

/// A connected client socket to 127.0.0.1:`port`, or -1.
int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends `request` and reads until the server closes; false when the
/// connection could not be made.
bool round_trip(std::uint16_t port, const std::string& request) {
  const int fd = connect_to(port);
  if (fd < 0) return false;
  (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  char buf[4096];
  while (::recv(fd, buf, sizeof(buf), 0) > 0) {
  }
  ::close(fd);
  return true;
}

TEST(ObsStress, StopReturnsWhileRequestsAreInFlight) {
  using namespace std::chrono_literals;
  for (int round = 0; round < 12; ++round) {
    ExpoServer server;
    ASSERT_TRUE(server.start("127.0.0.1:0").is_ok());
    const std::uint16_t port = server.port();

    // Scrapers keep full requests in flight until the server is gone.
    std::atomic<bool> done{false};
    std::vector<std::thread> scrapers;
    for (int s = 0; s < 3; ++s) {
      scrapers.emplace_back([&, s] {
        const std::string path = s == 0 ? "/metrics" : s == 1 ? "/trace"
                                                               : "/healthz";
        while (!done.load(std::memory_order_relaxed) &&
               round_trip(port, "GET " + path + " HTTP/1.1\r\n\r\n")) {
        }
      });
    }
    // A client that sends half a request and then goes silent: the
    // server blocks reading the rest of it.
    const int silent = connect_to(port);
    ASSERT_GE(silent, 0);
    const std::string partial = "GET /metrics HTTP/1.1\r\nHost: x\r\n";
    ASSERT_EQ(::send(silent, partial.data(), partial.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(partial.size()));
    std::this_thread::sleep_for(std::chrono::milliseconds(2 + round % 5));

    auto stopped = std::async(std::launch::async, [&] { server.stop(); });
    const bool prompt = stopped.wait_for(10s) == std::future_status::ready;
    EXPECT_TRUE(prompt) << "stop() blocked behind a silent client, round "
                        << round;
    ::shutdown(silent, SHUT_RDWR);  // frees a stuck server either way
    stopped.wait();
    ::close(silent);
    done.store(true, std::memory_order_relaxed);
    for (std::thread& t : scrapers) t.join();
    EXPECT_FALSE(server.running());
    EXPECT_EQ(server.port(), 0);
    if (!prompt) break;
  }
}

TEST(ObsStress, RingsOfExitedThreadsStayRegisteredAndReadable) {
  // Waves of short-lived threads each register a ring by recording spans
  // and exit, while a reader merges and rolls up the rings throughout.
  // Every span of every exited thread must still be there at the end,
  // and a wave reuses the rings of the waves before it: the registry
  // grows by at most the peak number of live threads.
  TracerRegistry& registry = TracerRegistry::global();
  registry.clear();
  const std::size_t rings0 = registry.occupancy().rings;
  constexpr int kWaves = 4;
  constexpr int kThreadsPerWave = 8;
  constexpr int kSpans = 50;

  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::size_t last_rings = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const TracerRegistry::Occupancy o = registry.occupancy();
      EXPECT_GE(o.rings, last_rings);  // registration only appends
      EXPECT_LE(o.events, o.capacity);
      last_rings = o.rings;
      const TraceRing::Contents merged = registry.merged();
      for (std::size_t i = 1; i < merged.events.size(); ++i) {
        ASSERT_LE(merged.events[i - 1].start_ns, merged.events[i].start_ns);
      }
    }
  });
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreadsPerWave; ++t) {
      const std::string name =
          "stress.w" + std::to_string(wave) + ".t" + std::to_string(t);
      threads.emplace_back([name] {
        for (int s = 0; s < kSpans; ++s) {
          const TraceSpan span(name);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  done.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_LE(registry.occupancy().rings,
            rings0 + static_cast<std::size_t>(kThreadsPerWave));
  const TraceRing::Contents merged = registry.merged();
  for (int wave = 0; wave < kWaves; ++wave) {
    for (int t = 0; t < kThreadsPerWave; ++t) {
      const std::string name =
          "stress.w" + std::to_string(wave) + ".t" + std::to_string(t);
      int seen = 0;
      for (const TraceEvent& e : merged.events) {
        seen += e.name_view() == name ? 1 : 0;
      }
      EXPECT_EQ(seen, kSpans) << name;
    }
  }
}

#endif  // !MATON_OBS_OFF

}  // namespace
}  // namespace maton::obs
