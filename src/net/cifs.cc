#include "src/net/cifs.h"

#include <algorithm>

#include "src/fs/page_cache.h"

namespace osnet {

CifsMount::CifsMount(osim::Kernel* kernel, osfs::Vfs* server_fs,
                     CifsConfig config, PacketTrace* trace)
    : kernel_(kernel),
      server_fs_(server_fs),
      config_(config),
      c2s_(kernel, config.net, "client", trace),
      s2c_(kernel, config.net, "server", trace),
      server_ledger_(kernel),
      attr_cache_(*kernel, "cifs.attr_cache"),
      page_cache_(*kernel, "cifs.page_cache"),
      server_listings_(*kernel, "cifs.server_listings"),
      server_requests_(*kernel, "cifs.server_requests") {
  client_ack_ = std::make_unique<DelayedAckPolicy>(kernel, config.net, &c2s_,
                                                   &server_ledger_);
  client_ack_->set_delayed_ack_enabled(config.client_delayed_ack);
}

void CifsMount::SendRequest(std::string_view label,
                            std::function<void()> on_server) {
  // A request packet carries any pending ACK (the Linux-client mechanism
  // that avoids the delayed-ACK stall).
  const std::uint64_t piggyback = client_ack_->ConsumePendingAck();
  AckLedger* ledger = &server_ledger_;
  c2s_.Send(config_.request_bytes, PacketKind::kRequest, label,
            [piggyback, ledger, on_server = std::move(on_server)] {
              if (piggyback > 0) {
                ledger->OnAckReceived(piggyback);
              }
              on_server();
            });
}

// --- Server-side helpers ----------------------------------------------------

Task<void> CifsMount::ServerEnsureListing(const std::string& path) {
  ServerListing& listing = OSIM_SHARED_RW(server_listings_)[path];
  if (listing.loaded) {
    co_return;
  }
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
        auto& listings = OSIM_SHARED_RW(server_listings_);
        listings[path].names.push_back(name);
        listings[path].attrs.push_back(RemoteAttr{attr.size, attr.is_dir});
      }
    }
    co_await server_fs_->Close(fd);
  }
  // ServerEnsureListing may have suspended; re-resolve (map iterators are
  // stable, but be explicit about the single mutation point).
  OSIM_SHARED_RW(server_listings_)[path].loaded = true;
}

void CifsMount::SendBatchBurst(std::string_view label, std::uint32_t bytes,
                               bool final_burst, FindTransaction* txn) {
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

Task<void> CifsMount::ServerFindHandler(std::string path, DirState* dir,
                                        FindTransaction* txn) {
  ++OSIM_SHARED_RW(server_requests_);
  const bool first = !dir->started;
  co_await kernel_->Cpu(config_.server_op_cpu);
  co_await ServerEnsureListing(path);
  const ServerListing& listing = OSIM_SHARED_RO(server_listings_).at(path);

  std::uint64_t cookie = dir->cookie;
  const std::uint64_t total = listing.names.size();
  // A Windows client lets the server push several batches per
  // transaction; a Linux client pulls one batch per request.
  const int max_batches = config_.client_os == ClientOs::kWindows
                              ? config_.batches_per_transaction
                              : 1;
  for (int b = 0; b < max_batches; ++b) {
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
    const bool exhausted = cookie >= total;
    const bool final_burst = b == max_batches - 1 || exhausted;
    const std::uint32_t bytes = std::max<std::uint32_t>(
        config_.small_reply_bytes,
        static_cast<std::uint32_t>(take) * config_.bytes_per_entry);
    const std::string_view label =
        b == 0 ? (first ? "FIND_FIRST" : "FIND_NEXT") : "transact continuation";
    SendBatchBurst(label, bytes, final_burst, txn);
    if (exhausted) {
      break;
    }
  }
  txn->next_cookie = cookie;
  txn->end_of_dir = cookie >= total;
}

Task<void> CifsMount::ServerReadPageHandler(std::string path,
                                            std::uint64_t page,
                                            FindTransaction* txn) {
  ++OSIM_SHARED_RW(server_requests_);
  co_await kernel_->Cpu(config_.server_op_cpu);
  // Real server-side read: open + seek + read on the exported fs (the
  // server's own page cache and disk produce the service-time spread).
  const int fd = co_await server_fs_->Open(path, /*direct_io=*/false);
  std::uint32_t bytes = config_.small_reply_bytes;
  if (fd >= 0) {
    (void)co_await server_fs_->Llseek(fd, page * osfs::kPageBytes);
    const std::int64_t got = co_await server_fs_->Read(fd, osfs::kPageBytes);
    if (got > 0) {
      bytes = static_cast<std::uint32_t>(got);
    }
    co_await server_fs_->Close(fd);
  }
  SendBatchBurst("READ", bytes, /*final_burst=*/true, txn);
}

// --- Client-side transactions ------------------------------------------------

Task<void> CifsMount::FindTransactionImpl(const std::string& path,
                                          DirState* dir) {
  const bool first = !dir->started;
  co_await kernel_->Cpu(config_.client_op_cpu);
  FindTransaction txn(kernel_);
  FindTransaction* txn_ptr = &txn;
  SendRequest(first ? "FIND_FIRST request" : "FIND_NEXT request",
              [this, path, dir, txn_ptr] {
                kernel_->Spawn("smbd:find",
                               ServerFindHandler(path, dir, txn_ptr));
              });
  while (!txn.complete) {
    co_await txn.done.Wait();
  }
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

Task<void> CifsMount::RemoteReadPage(const std::string& path,
                                     std::uint64_t page) {
  FindTransaction txn(kernel_);
  FindTransaction* txn_ptr = &txn;
  SendRequest("READ request", [this, path, page, txn_ptr] {
    kernel_->Spawn("smbd:read", ServerReadPageHandler(path, page, txn_ptr));
  });
  while (!txn.complete) {
    co_await txn.done.Wait();
  }
  OSIM_SHARED_RW(page_cache_).insert({path, page});
}

std::string CifsMount::SmallOpLabel(SmallOp op) {
  switch (op) {
    case SmallOp::kStat:
      return "STAT";
    case SmallOp::kWrite:
      return "WRITE";
    case SmallOp::kCreate:
      return "CREATE";
    case SmallOp::kUnlink:
      return "UNLINK";
    case SmallOp::kFlush:
      return "FLUSH";
  }
  return "?";
}

Task<void> CifsMount::ServerSmallOpHandler(SmallOpArgs args,
                                           FindTransaction* txn) {
  ++OSIM_SHARED_RW(server_requests_);
  co_await kernel_->Cpu(config_.server_op_cpu);
  switch (args.op) {
    case SmallOp::kStat: {
      const osfs::FileAttr attr = co_await server_fs_->Stat(args.path);
      OSIM_SHARED_RW(attr_cache_)[args.path] = RemoteAttr{attr.size, attr.is_dir};
      break;
    }
    case SmallOp::kWrite: {
      const int sfd = co_await server_fs_->Open(args.path, false);
      if (sfd >= 0) {
        (void)co_await server_fs_->Llseek(sfd, args.pos);
        (void)co_await server_fs_->Write(sfd, args.bytes);
        co_await server_fs_->Close(sfd);
      }
      break;
    }
    case SmallOp::kCreate: {
      const int sfd = co_await server_fs_->Create(args.path);
      if (sfd >= 0) {
        co_await server_fs_->Close(sfd);
      }
      break;
    }
    case SmallOp::kUnlink: {
      co_await server_fs_->Unlink(args.path);
      break;
    }
    case SmallOp::kFlush: {
      const int sfd = co_await server_fs_->Open(args.path, false);
      if (sfd >= 0) {
        co_await server_fs_->Fsync(sfd);
        co_await server_fs_->Close(sfd);
      }
      break;
    }
  }
  SendBatchBurst(SmallOpLabel(args.op) + " reply", config_.small_reply_bytes,
                 /*final_burst=*/true, txn);
}

Task<void> CifsMount::SmallRoundTrip(SmallOpArgs args) {
  FindTransaction txn(kernel_);
  FindTransaction* txn_ptr = &txn;
  const std::string label = SmallOpLabel(args.op);
  SendRequest(label + " request", [this, args = std::move(args), txn_ptr] {
    kernel_->Spawn("smbd:small", ServerSmallOpHandler(args, txn_ptr));
  });
  while (!txn.complete) {
    co_await txn.done.Wait();
  }
}

Task<void> CifsMount::FetchAttr(const std::string& path) {
  if (OSIM_SHARED_RO(attr_cache_).count(path) != 0) {
    co_return;
  }
  SmallOpArgs args;
  args.op = SmallOp::kStat;
  args.path = path;
  co_await SmallRoundTrip(std::move(args));
}

// --- Vfs operations -----------------------------------------------------------

Task<int> CifsMount::OpenImpl(const std::string& path,
                              bool /*direct_io*/) {
  co_await kernel_->Cpu(config_.client_op_cpu);
  co_await FetchAttr(path);
  const RemoteAttr attr = OSIM_SHARED_RO(attr_cache_).at(path);
  const int fd = fds_.Open({});
  ClientFile& f = fds_.at(fd);
  f.path = path;
  f.attr = attr;
  if (attr.is_dir) {
    f.dir = std::make_unique<DirState>();
  }
  co_return fd;
}

Task<void> CifsMount::CloseImpl(int fd) {
  co_await kernel_->Cpu(config_.client_op_cpu / 2);
  fds_.Close(fd);
}

Task<std::int64_t> CifsMount::ReadImpl(int fd, std::uint64_t bytes) {
  ClientFile& f = fds_.at(fd);
  std::int64_t result = 0;
  if (f.attr.is_dir || bytes == 0 || f.pos >= f.attr.size) {
    co_await kernel_->Cpu(config_.client_op_cpu / 4);
  } else {
    const std::uint64_t end = std::min(f.attr.size, f.pos + bytes);
    const std::uint64_t first_page = f.pos / osfs::kPageBytes;
    const std::uint64_t last_page = (end - 1) / osfs::kPageBytes;
    for (std::uint64_t page = first_page; page <= last_page; ++page) {
      if (OSIM_SHARED_RO(page_cache_).count({f.path, page}) == 0) {
        co_await RemoteReadPage(f.path, page);
      }
      co_await kernel_->Cpu(1'400);  // Local copy-out.
    }
    result = static_cast<std::int64_t>(end - f.pos);
    f.pos = end;
  }
  co_return result;
}

Task<std::int64_t> CifsMount::WriteImpl(int fd, std::uint64_t bytes) {
  ClientFile& f = fds_.at(fd);
  const std::string path = f.path;
  const std::uint64_t pos = f.pos;
  // Write-through: the bytes travel to the server, which applies them to
  // the exported fs.
  co_await kernel_->Cpu(config_.client_op_cpu);
  SmallOpArgs args;
  args.op = SmallOp::kWrite;
  args.path = path;
  args.pos = pos;
  args.bytes = bytes;
  co_await SmallRoundTrip(std::move(args));
  ClientFile& f2 = fds_.at(fd);
  f2.pos += bytes;
  f2.attr.size = std::max(f2.attr.size, f2.pos);
  OSIM_SHARED_RW(attr_cache_)[path] = f2.attr;
  co_return static_cast<std::int64_t>(bytes);
}

Task<std::uint64_t> CifsMount::LlseekImpl(int fd, std::uint64_t pos) {
  co_await kernel_->Cpu(config_.client_op_cpu / 4);
  ClientFile& f = fds_.at(fd);
  f.pos = pos;
  co_return f.pos;
}

Task<osfs::DirentBatch> CifsMount::ReaddirImpl(int fd,
                                               std::uint64_t* /*value*/) {
  ClientFile& f = fds_.at(fd);
  osfs::DirentBatch batch;
  if (f.dir == nullptr) {
    batch.at_end = true;
    co_await kernel_->Cpu(config_.client_op_cpu / 4);
  } else {
    DirState& dir = *f.dir;
    // Fetch more entries if the caller has consumed what we have.
    while (dir.served >= dir.names.size() && !dir.end_of_dir) {
      co_await FindTransactionOp(f.path, &dir);
    }
    if (dir.served >= dir.names.size()) {
      // Past EOF: local, immediate.
      batch.at_end = true;
      co_await kernel_->Cpu(90);
    } else {
      const std::size_t take =
          std::min(static_cast<std::size_t>(config_.entries_per_batch),
                   dir.names.size() - dir.served);
      for (std::size_t i = 0; i < take; ++i) {
        batch.names.push_back(dir.names[dir.served + i]);
      }
      dir.served += take;
      batch.at_end = dir.served >= dir.names.size() && dir.end_of_dir;
      co_await kernel_->Cpu(500 + 55 * take);
    }
  }
  co_return batch;
}

Task<void> CifsMount::FsyncImpl(int fd) {
  const std::string path = fds_.at(fd).path;
  SmallOpArgs args;
  args.op = SmallOp::kFlush;
  args.path = path;
  co_await SmallRoundTrip(std::move(args));
}

Task<int> CifsMount::CreateImpl(const std::string& path) {
  SmallOpArgs args;
  args.op = SmallOp::kCreate;
  args.path = path;
  co_await SmallRoundTrip(std::move(args));
  OSIM_SHARED_RW(attr_cache_)[path] = RemoteAttr{0, false};
  const int fd = fds_.Open({});
  ClientFile& f = fds_.at(fd);
  f.path = path;
  f.attr = OSIM_SHARED_RO(attr_cache_).at(path);
  co_return fd;
}

Task<void> CifsMount::UnlinkImpl(const std::string& path) {
  SmallOpArgs args;
  args.op = SmallOp::kUnlink;
  args.path = path;
  co_await SmallRoundTrip(std::move(args));
  OSIM_SHARED_RW(attr_cache_).erase(path);
}

Task<osfs::FileAttr> CifsMount::StatImpl(const std::string& path) {
  co_await kernel_->Cpu(config_.client_op_cpu / 4);
  co_await FetchAttr(path);
  osfs::FileAttr attr;
  // FetchAttr guarantees presence; [] would record a write on a miss.
  const RemoteAttr& cached = OSIM_SHARED_RO(attr_cache_).at(path);
  attr.size = cached.size;
  attr.is_dir = cached.is_dir;
  co_return attr;
}

}  // namespace osnet
