#include "src/net/cifs.h"

#include <algorithm>

#include "src/fs/page_cache.h"
#include "src/net/exported.h"

namespace osnet {

CifsMount::CifsMount(osim::Kernel* kernel, osfs::Vfs* server_fs,
                     CifsConfig config, PacketTrace* trace)
    : RemoteMount(kernel, server_fs, config.client_op_cpu,
                  config.entries_per_batch, /*readdir_entry_cpu=*/55,
                  "cifs.page_cache"),
      config_(config),
      c2s_(kernel, config.net, "client", trace),
      s2c_(kernel, config.net, "server", trace),
      server_ledger_(kernel),
      attr_cache_(*kernel, "cifs.attr_cache"),
      server_listings_(*kernel, "cifs.server_listings"),
      server_requests_(*kernel, "cifs.server_requests") {
  client_ack_ = std::make_unique<DelayedAckPolicy>(kernel, config.net, &c2s_,
                                                   &server_ledger_);
  client_ack_->set_delayed_ack_enabled(config.client_delayed_ack);
}

// --- The request path -------------------------------------------------------

Task<void> CifsMount::Exchange(std::string_view request_label,
                               Transaction* txn) {
  // A request packet carries any pending ACK (the Linux-client mechanism
  // that avoids the delayed-ACK stall).
  const std::uint64_t piggyback = client_ack_->ConsumePendingAck();
  c2s_.Send(config_.request_bytes, PacketKind::kRequest, request_label,
            [this, piggyback, txn] {
              if (piggyback > 0) {
                server_ledger_.OnAckReceived(piggyback);
              }
              kernel_->Spawn("smbd", Serve(txn));
            });
  while (!txn->complete) {
    co_await txn->done.Wait();
  }
}

Task<void> CifsMount::Serve(Transaction* txn) {
  ++OSIM_SHARED_RW(server_requests_);
  co_await kernel_->Cpu(config_.server_op_cpu);
  const std::uint32_t bytes = co_await txn->work;
  SendBurst(txn->reply_label, bytes, /*final_burst=*/true, txn);
}

void CifsMount::SendBurst(std::string_view label, std::uint32_t bytes,
                          bool final_burst, Transaction* txn) {
  DelayedAckPolicy* ack = client_ack_.get();
  const int segments = s2c_.SendSegmented(
      bytes, label, [ack, final_burst, txn](int index, int total) {
        ack->OnDataSegment();
        if (final_burst && index == total - 1) {
          txn->complete = true;
          txn->done.WakeAll();
        }
      });
  for (int i = 0; i < segments; ++i) {
    server_ledger_.OnSegmentSent();
  }
}

// --- Server-side work ------------------------------------------------------

template <typename T>
Task<std::uint32_t> CifsMount::SmallReply(Task<T> call) {
  co_await call;
  co_return config_.small_reply_bytes;
}

Task<std::uint32_t> CifsMount::ServeStat(const std::string& path) {
  const osfs::FileAttr attr = co_await server_fs_->Stat(path);
  OSIM_SHARED_RW(attr_cache_)[path] = attr;
  co_return config_.small_reply_bytes;
}

Task<std::uint32_t> CifsMount::ServeRead(const std::string& path,
                                         std::uint64_t page) {
  const std::int64_t got = co_await ExportedRead(
      server_fs_, path, page * osfs::kPageBytes, osfs::kPageBytes);
  co_return got > 0 ? static_cast<std::uint32_t>(got)
                    : config_.small_reply_bytes;
}

Task<void> CifsMount::ServerEnsureListing(const std::string& path) {
  auto& listings = OSIM_SHARED_RW(server_listings_);
  ServerListing& listing = listings.try_emplace(path, kernel_).first->second;
  if (listing.loaded) {
    co_return;
  }
  if (listing.loading) {
    // Another Find transaction is enumerating it; map nodes never move.
    while (!OSIM_SHARED_RO(server_listings_).at(path).loaded) {
      co_await listing.loaded_waiters.Wait();
    }
    co_return;
  }
  listing.loading = true;
  // Enumerate on the exported file system -- real substrate work: the
  // first FindFirst of a cold directory pays the server's disk latency.
  const int fd = co_await server_fs_->Open(path, /*direct_io=*/false);
  if (fd >= 0) {
    while (true) {
      const osfs::DirentBatch batch = co_await server_fs_->Readdir(fd);
      if (batch.names.empty()) {
        break;
      }
      for (const std::string& name : batch.names) {
        // SMB Find replies carry per-entry metadata, so the server stats
        // each entry while building the listing.
        const osfs::FileAttr attr =
            co_await server_fs_->Stat(path + "/" + name);
        ServerListing& building = OSIM_SHARED_RW(server_listings_).at(path);
        building.names.push_back(name);
        building.attrs.push_back(attr);
      }
    }
    co_await server_fs_->Close(fd);
  }
  OSIM_SHARED_RW(server_listings_).at(path).loaded = true;
  listing.loaded_waiters.WakeAll();
}

Task<std::uint32_t> CifsMount::ServeFind(const std::string& path, bool first,
                                         std::uint64_t cookie,
                                         Transaction* txn) {
  co_await ServerEnsureListing(path);
  const ServerListing& listing = OSIM_SHARED_RO(server_listings_).at(path);
  const std::uint64_t total = listing.names.size();
  // A Windows client lets the server push several batches per
  // transaction; a Linux client pulls one batch per request.
  const int max_batches = config_.client_os == ClientOs::kWindows
                              ? config_.batches_per_transaction
                              : 1;
  for (int b = 0;; ++b) {
    if (b > 0) {
      // The Windows server's synchronous behaviour: no further data until
      // everything sent so far is acknowledged (Figure 11, left).
      co_await server_ledger_.WaitAllAcked();
    }
    const std::uint64_t take = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(config_.entries_per_batch), total - cookie);
    for (std::uint64_t i = 0; i < take; ++i) {
      txn->names.push_back(listing.names[cookie + i]);
      txn->attrs.push_back(listing.attrs[cookie + i]);
    }
    cookie += take;
    const std::uint32_t bytes = std::max<std::uint32_t>(
        config_.small_reply_bytes,
        static_cast<std::uint32_t>(take) * config_.bytes_per_entry);
    const std::string_view label =
        b == 0 ? (first ? "FIND_FIRST" : "FIND_NEXT") : "transact continuation";
    if (b + 1 >= max_batches || cookie >= total) {
      txn->reply_label = label;
      txn->next_cookie = cookie;
      txn->end_of_dir = cookie >= total;
      co_return bytes;
    }
    SendBurst(label, bytes, /*final_burst=*/false, txn);
  }
}

// --- Client side -----------------------------------------------------------

Task<void> CifsMount::FindImpl(const std::string& path, RemoteDir* dir) {
  const bool first = !dir->started;
  co_await kernel_->Cpu(config_.client_op_cpu);
  Transaction txn(kernel_);
  txn.work = ServeFind(path, first, dir->cookie, &txn);
  co_await Exchange(first ? "FIND_FIRST request" : "FIND_NEXT request", &txn);
  dir->started = true;
  for (std::size_t i = 0; i < txn.names.size(); ++i) {
    // Cache the metadata that rode along with each entry, so subsequent
    // stat/open of listed files stays client-local.
    OSIM_SHARED_RW(attr_cache_)[path + "/" + txn.names[i]] = txn.attrs[i];
    dir->names.push_back(std::move(txn.names[i]));
  }
  dir->cookie = txn.next_cookie;
  dir->end_of_dir = txn.end_of_dir;
}

Task<void> CifsMount::FetchPage(const std::string& path, std::uint64_t page) {
  Transaction txn(kernel_, ServeRead(path, page), "READ");
  co_await Exchange("READ request", &txn);
}

Task<void> CifsMount::FetchAttr(const std::string& path) {
  if (OSIM_SHARED_RO(attr_cache_).count(path) != 0) {
    co_return;
  }
  Transaction txn(kernel_, ServeStat(path), "STAT reply");
  co_await Exchange("STAT request", &txn);
}

// --- Vfs operations --------------------------------------------------------

Task<int> CifsMount::OpenImpl(const std::string& path,
                              bool /*direct_io*/) {
  co_await kernel_->Cpu(config_.client_op_cpu);
  co_await FetchAttr(path);
  co_return OpenRemote(path, OSIM_SHARED_RO(attr_cache_).at(path));
}

Task<std::int64_t> CifsMount::WriteImpl(int fd, std::uint64_t bytes) {
  RemoteFile& f = file(fd);
  // Write-through: the bytes travel to the server, which applies them to
  // the exported fs.
  co_await kernel_->Cpu(config_.client_op_cpu);
  Transaction txn(kernel_,
                  SmallReply(ExportedWrite(server_fs_, f.path, f.pos, bytes)),
                  "WRITE reply");
  co_await Exchange("WRITE request", &txn);
  f.pos += bytes;
  f.attr.size = std::max(f.attr.size, f.pos);
  OSIM_SHARED_RW(attr_cache_)[f.path] = f.attr;
  co_return static_cast<std::int64_t>(bytes);
}

Task<void> CifsMount::FsyncImpl(int fd) {
  Transaction txn(kernel_,
                  SmallReply(ExportedFlush(server_fs_, file(fd).path)),
                  "FLUSH reply");
  co_await Exchange("FLUSH request", &txn);
}

Task<int> CifsMount::CreateImpl(const std::string& path) {
  Transaction txn(kernel_, SmallReply(ExportedCreate(server_fs_, path)),
                  "CREATE reply");
  co_await Exchange("CREATE request", &txn);
  OSIM_SHARED_RW(attr_cache_)[path] = osfs::FileAttr{0, false};
  co_return OpenRemote(path, OSIM_SHARED_RO(attr_cache_).at(path));
}

Task<void> CifsMount::UnlinkImpl(const std::string& path) {
  Transaction txn(kernel_, SmallReply(server_fs_->Unlink(path)),
                  "UNLINK reply");
  co_await Exchange("UNLINK request", &txn);
  OSIM_SHARED_RW(attr_cache_).erase(path);
}

Task<osfs::FileAttr> CifsMount::StatImpl(const std::string& path) {
  co_await kernel_->Cpu(config_.client_op_cpu / 4);
  co_await FetchAttr(path);
  // FetchAttr guarantees presence; [] would record a write on a miss.
  co_return OSIM_SHARED_RO(attr_cache_).at(path);
}

}  // namespace osnet
