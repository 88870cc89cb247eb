/// Unit tests for the network model: the four-point message lifecycle
/// (initiation / staging / delivery / ack), staged source reads, jitter
/// reordering (non-FIFO channels), and traffic accounting.

#include <gtest/gtest.h>

#include <vector>

#include "net/network.hpp"
#include "sim/participant.hpp"
#include "support/error.hpp"

namespace {

using namespace caf2;
using namespace caf2::net;

NetworkParams test_params() {
  NetworkParams params;
  params.latency_us = 10.0;
  params.bandwidth_bytes_per_us = 100.0;  // 1 us per 100 bytes
  params.handler_cost_us = 0.0;
  params.ack_latency_us = 10.0;
  params.jitter_us = 0.0;
  return params;
}

TEST(Network, LifecycleTiming) {
  sim::Engine engine(2);
  Network network(engine, test_params(), 1);
  double staged_at = -1;
  double acked_at = -1;
  double delivered_at = -1;

  engine.run([&](int id) {
    sim::Engine& e = sim::this_engine();
    if (id == 0) {
      Message message;
      message.header.source = 0;
      message.header.dest = 1;
      message.header.handler = 99;
      message.payload.assign(200, 7);  // 2 us injection
      SendCallbacks callbacks;
      callbacks.on_staged = [&] { staged_at = e.now(); };
      callbacks.on_acked = [&] { acked_at = e.now(); };
      network.send(std::move(message), std::move(callbacks));
      e.advance(100.0);
    } else {
      e.block();
      delivered_at = e.now();
      auto got = network.mailbox(1).try_pop();
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->header.handler, 99u);
      EXPECT_EQ(got->payload.size(), 200u);
    }
  });
  EXPECT_DOUBLE_EQ(staged_at, 2.0);        // bytes / bandwidth
  EXPECT_DOUBLE_EQ(delivered_at, 12.0);    // + latency
  EXPECT_DOUBLE_EQ(acked_at, 22.0);        // + ack latency
}

TEST(Network, StagedReadHappensAtStageTimeNotCallTime) {
  // The source buffer is read when the transfer is injected; mutating it
  // after initiation but before staging corrupts the payload — the hazard
  // cofence exists to prevent.
  sim::Engine engine(2);
  Network network(engine, test_params(), 1);
  std::vector<std::uint8_t> received;

  engine.run([&](int id) {
    sim::Engine& e = sim::this_engine();
    if (id == 0) {
      std::vector<std::uint8_t> buffer(100, 1);
      MessageHeader header;
      header.source = 0;
      header.dest = 1;
      network.send_staged(header, buffer.size(), [&buffer] {
        return buffer;  // read at staging time
      });
      buffer.assign(100, 2);  // overwrite *before* staging (0.5 us later)
      e.advance(50.0);
    } else {
      e.block();
      auto got = network.mailbox(1).try_pop();
      ASSERT_TRUE(got.has_value());
      received = got->payload;
    }
  });
  ASSERT_EQ(received.size(), 100u);
  EXPECT_EQ(received[0], 2) << "staged read must see the overwritten buffer";
}

TEST(Network, JitterCanReorderDeliveries) {
  // With jitter comparable to the inter-send gap, two messages to the same
  // destination can arrive out of order: channels are not FIFO.
  NetworkParams params = test_params();
  params.jitter_us = 30.0;
  bool reordered_with_some_seed = false;
  for (std::uint64_t seed = 1; seed <= 20 && !reordered_with_some_seed;
       ++seed) {
    sim::Engine engine(2);
    Network network(engine, params, seed);
    std::vector<int> arrival_order;
    engine.run([&](int id) {
      sim::Engine& e = sim::this_engine();
      if (id == 0) {
        for (int k = 0; k < 4; ++k) {
          Message message;
          message.header.source = 0;
          message.header.dest = 1;
          message.payload.assign(4, static_cast<std::uint8_t>(k));
          network.send(std::move(message));
        }
        e.advance(200.0);
      } else {
        while (arrival_order.size() < 4) {
          if (auto got = network.mailbox(1).try_pop()) {
            arrival_order.push_back(got->payload[0]);
          } else {
            e.block();
          }
        }
      }
    });
    if (arrival_order != std::vector<int>{0, 1, 2, 3}) {
      reordered_with_some_seed = true;
    }
  }
  EXPECT_TRUE(reordered_with_some_seed)
      << "jitter never produced a reordering across 20 seeds";
}

TEST(Network, TrafficCountersPerImage) {
  sim::Engine engine(3);
  Network network(engine, test_params(), 1);
  // A bulk attachment is wire data like the payload: counters and the
  // timing plan charge payload + bulk (4 + 96 B -> 1 us to inject).
  const std::vector<std::uint8_t> bytes(96, 7);
  const SharedBytes bulk = SharedBytes::copy_of(bytes);
  double staged_at = -1;
  engine.run([&](int id) {
    sim::Engine& e = sim::this_engine();
    if (id == 0) {
      for (int dest : {1, 2, 2}) {
        Message message;
        message.header.source = 0;
        message.header.dest = dest;
        message.payload.assign(10, 0);
        network.send(std::move(message));
      }
      Message message;
      message.header.source = 0;
      message.header.dest = 1;
      message.payload.assign(4, 0);
      message.bulk = bulk;
      EXPECT_EQ(message.size_bytes(), 100u);
      SendCallbacks callbacks;
      callbacks.on_staged = [&] { staged_at = e.now(); };
      network.send(std::move(message), std::move(callbacks));
    }
    e.advance(100.0);
  });
  EXPECT_DOUBLE_EQ(staged_at, 1.0);
  EXPECT_EQ(network.messages_sent(), 4u);
  EXPECT_EQ(network.bytes_sent(), 130u);
  EXPECT_EQ(network.traffic(0).messages_out, 4u);
  EXPECT_EQ(network.traffic(0).bytes_out, 130u);
  EXPECT_EQ(network.traffic(1).messages_in, 2u);
  EXPECT_EQ(network.traffic(1).bytes_in, 110u);
  EXPECT_EQ(network.traffic(2).messages_in, 2u);
  EXPECT_EQ(network.traffic(2).bytes_in, 20u);
  // The delivered message carries the sender's buffer, not a copy of it.
  int bulk_deliveries = 0;
  while (auto message = network.mailbox(1).try_pop()) {
    if (!message->bulk.empty()) {
      ++bulk_deliveries;
      EXPECT_EQ(message->bulk.data(), bulk.data());
    }
  }
  EXPECT_EQ(bulk_deliveries, 1);
  network.reset_traffic();
  EXPECT_EQ(network.traffic(2).messages_in, 0u);
}

TEST(SharedBytes, CopiesShareOneImmutableBuffer) {
  const SharedBytes empty = SharedBytes::copy_of(nullptr, 0);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.data(), nullptr);
  EXPECT_EQ(empty.size(), 0u);

  const std::vector<std::uint8_t> bytes{1, 2, 3};
  SharedBytes owner = SharedBytes::copy_of(bytes);
  ASSERT_EQ(owner.size(), 3u);
  EXPECT_NE(owner.data(), bytes.data());  // a snapshot, not a view
  owner.mutable_data()[0] = 9;            // sole owner: writable
  SharedBytes copy = owner;
  EXPECT_EQ(copy.data(), owner.data());
  EXPECT_EQ(copy.data()[0], 9);
  EXPECT_THROW(owner.mutable_data(), FatalError);  // shared: immutable
  owner.reset();
  EXPECT_TRUE(owner.empty());
  EXPECT_EQ(copy.data()[2], 3);  // the remaining handle keeps the bytes
  EXPECT_NE(copy.mutable_data(), nullptr);
}

TEST(Network, InstantParamsDeliverAtOnce) {
  sim::Engine engine(2);
  Network network(engine, NetworkParams::instant(), 1);
  double delivered_at = -1;
  engine.run([&](int id) {
    sim::Engine& e = sim::this_engine();
    if (id == 0) {
      Message message;
      message.header.source = 0;
      message.header.dest = 1;
      message.payload.assign(1000, 0);
      network.send(std::move(message));
      e.advance(1.0);
    } else {
      e.block();
      delivered_at = e.now();
    }
  });
  EXPECT_DOUBLE_EQ(delivered_at, 0.0);
}

TEST(Mailbox, FifoAndCounters) {
  Mailbox mailbox;
  EXPECT_TRUE(mailbox.empty());
  EXPECT_FALSE(mailbox.try_pop().has_value());
  for (int i = 0; i < 3; ++i) {
    Message message;
    message.header.handler = static_cast<HandlerId>(i);
    mailbox.push(std::move(message));
  }
  EXPECT_EQ(mailbox.size(), 3u);
  EXPECT_EQ(mailbox.delivered_total(), 3u);
  EXPECT_EQ(mailbox.try_pop()->header.handler, 0u);
  EXPECT_EQ(mailbox.try_pop()->header.handler, 1u);
  EXPECT_EQ(mailbox.try_pop()->header.handler, 2u);
  EXPECT_TRUE(mailbox.empty());
  EXPECT_EQ(mailbox.delivered_total(), 3u);
}

TEST(Network, TrafficOfAnOutOfRangeImageRejected) {
  sim::Engine engine(2);
  const Network network(engine, test_params(), 1);
  EXPECT_EQ(network.traffic(1).messages_in, 0u);
  EXPECT_THROW(network.traffic(2), UsageError);
  EXPECT_THROW(network.traffic(-1), UsageError);
}

TEST(Network, OutOfRangeDestinationRejected) {
  sim::Engine engine(2);
  Network network(engine, test_params(), 1);
  engine.run([&](int id) {
    if (id == 0) {
      Message message;
      message.header.source = 0;
      message.header.dest = 9;
      EXPECT_THROW(network.send(std::move(message)), UsageError);
    }
  });
}

}  // namespace
