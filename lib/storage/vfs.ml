exception Fault of string
exception Crashed of string

type fault =
  | Crash
  | Torn_write of int
  | Short_write of int
  | Fsync_raises
  | Fsync_lies
  | No_space
  | Bit_flip of int

(* ------------------------------------------------------------------ *)
(* Faulty backend: an in-memory filesystem with a two-level durability
   model. Each inode carries a live image (what reads see while the
   process runs) and a durable image (what survives a crash, updated by
   fsync). The namespace is likewise two-level: [live] is the running
   view, [durable_ns] the set of name→inode bindings a crash preserves.
   A file's creation becomes durable with its first content fsync
   (ext4-practical); renames and removals only become durable at
   [fsync_dir]. Directories are durable from creation — the interesting
   crash windows are about file contents and renames, not mkdir. *)

type inode = {
  mutable data : Bytes.t;  (* live image; capacity >= len *)
  mutable len : int;
  mutable durable : string option;  (* None: content never synced *)
}

type node = Fdir | Ffile of inode

type fstate = {
  live : (string, node) Hashtbl.t;
  durable_ns : (string, inode) Hashtbl.t;
  durable_dirs : (string, unit) Hashtbl.t;
  armed : (string, int ref * fault) Hashtbl.t;
  hits : (string, int) Hashtbl.t;
  mutable crashed : bool;
}

type t = Real | Faulty of fstate

type file =
  | Rfile of { fd : Unix.file_descr; mutable closed : bool }
  | Mfile of { st : fstate; ino : inode; path : string; mutable cursor : int }

let real = Real

let faulty () =
  Faulty
    {
      live = Hashtbl.create 16;
      durable_ns = Hashtbl.create 16;
      durable_dirs = Hashtbl.create 4;
      armed = Hashtbl.create 4;
      hits = Hashtbl.create 16;
      crashed = false;
    }


(* ------------------------------------------------------------------ *)
(* Failpoints                                                          *)

let check_alive st =
  if st.crashed then raise (Crashed "simulated crash (pending reboot)")

let crash_now st site =
  st.crashed <- true;
  raise (Crashed (Printf.sprintf "simulated crash at %s" site))

(* Record a hit at [site] and return the fault to apply, if one fires. *)
let fire st site =
  match site with
  | None -> None
  | Some site -> (
      Hashtbl.replace st.hits site
        (1 + Option.value ~default:0 (Hashtbl.find_opt st.hits site));
      match Hashtbl.find_opt st.armed site with
      | None -> None
      | Some (countdown, fault) ->
          if !countdown > 0 then begin
            decr countdown;
            None
          end
          else begin
            Hashtbl.remove st.armed site;
            Some (site, fault)
          end)

let arm t ~site ?(after = 0) fault =
  match t with
  | Real -> invalid_arg "Vfs.arm: cannot arm faults on the real backend"
  | Faulty st -> Hashtbl.replace st.armed site (ref after, fault)

let site_hits = function
  | Real -> []
  | Faulty st ->
      List.sort compare (Hashtbl.fold (fun s n acc -> (s, n) :: acc) st.hits [])

(* ------------------------------------------------------------------ *)
(* Faulty inode helpers                                                *)

let live_contents ino = Bytes.sub_string ino.data 0 ino.len

let ensure_capacity ino n =
  if Bytes.length ino.data < n then begin
    let data = Bytes.make (max n ((2 * Bytes.length ino.data) + 64)) '\x00' in
    Bytes.blit ino.data 0 data 0 ino.len;
    ino.data <- data
  end

let live_blit ino ~off s ~slen =
  ensure_capacity ino (off + slen);
  if off > ino.len then Bytes.fill ino.data ino.len (off - ino.len) '\x00';
  Bytes.blit_string s 0 ino.data off slen;
  ino.len <- max ino.len (off + slen)

let find_inode st path =
  match Hashtbl.find_opt st.live path with
  | Some (Ffile ino) -> Some ino
  | Some Fdir -> invalid_arg (Printf.sprintf "Vfs: %s is a directory" path)
  | None -> None

let create_inode st path =
  match find_inode st path with
  | Some ino -> ino
  | None ->
      let ino = { data = Bytes.create 256; len = 0; durable = None } in
      Hashtbl.replace st.live path (Ffile ino);
      ino

(* A file's name binding becomes durable with its first content fsync,
   but an existing binding — possibly under the old name of a rename —
   is only moved by [fsync_dir]. *)
let bind_if_unbound st path ino =
  let bound = Hashtbl.fold (fun _ i acc -> acc || i == ino) st.durable_ns false in
  if not bound then Hashtbl.replace st.durable_ns path ino

let flip_byte s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (i mod 8))));
  Bytes.to_string b

let flip_in_write s k =
  if String.length s = 0 then s else flip_byte s (k mod String.length s)

(* ------------------------------------------------------------------ *)
(* Namespace operations                                                *)

let file_exists t path =
  match t with
  | Real -> Sys.file_exists path
  | Faulty st ->
      check_alive st;
      Hashtbl.mem st.live path

let is_directory t path =
  match t with
  | Real -> Sys.file_exists path && Sys.is_directory path
  | Faulty st ->
      check_alive st;
      Hashtbl.find_opt st.live path = Some Fdir

let mkdir t path =
  match t with
  | Real -> Sys.mkdir path 0o755
  | Faulty st ->
      check_alive st;
      Hashtbl.replace st.live path Fdir;
      Hashtbl.replace st.durable_dirs path ()

let remove t path =
  match t with
  | Real -> Sys.remove path
  | Faulty st ->
      check_alive st;
      Hashtbl.remove st.live path

let rename ?site t src dst =
  match t with
  | Real -> Sys.rename src dst
  | Faulty st -> (
      check_alive st;
      match fire st site with
      | Some (s, _) -> crash_now st s (* any fault at a rename site = die there *)
      | None -> (
          match Hashtbl.find_opt st.live src with
          | None -> raise (Fault (Printf.sprintf "rename: %s does not exist" src))
          | Some node ->
              Hashtbl.remove st.live src;
              Hashtbl.replace st.live dst node))

let under_dir dir path = String.equal (Filename.dirname path) dir

let fsync_dir ?site t dir =
  match t with
  | Real -> (
      (* Some filesystems refuse fsync on directories; best effort. *)
      try
        let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
        Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)
      with Unix.Unix_error _ -> ())
  | Faulty st -> (
      check_alive st;
      match fire st site with
      | Some (s, (Crash | Torn_write _ | Short_write _ | Bit_flip _)) ->
          crash_now st s
      | Some (_, Fsync_lies) -> ()
      | Some (s, (Fsync_raises | No_space)) ->
          raise (Fault (Printf.sprintf "fsync_dir failed at %s" s))
      | None ->
          (* Persist the directory's current name set: creations,
             removals and renames under [dir] all become durable. *)
          let stale =
            Hashtbl.fold
              (fun p _ acc -> if under_dir dir p then p :: acc else acc)
              st.durable_ns []
          in
          List.iter (Hashtbl.remove st.durable_ns) stale;
          Hashtbl.iter
            (fun p node ->
              match node with
              | Ffile ino when under_dir dir p ->
                  Hashtbl.replace st.durable_ns p ino
              | _ -> ())
            st.live)

let read_file t path =
  match t with
  | Real ->
      if (not (Sys.file_exists path)) || Sys.is_directory path then None
      else begin
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> Some (really_input_string ic (in_channel_length ic)))
      end
  | Faulty st -> (
      check_alive st;
      match find_inode st path with
      | None -> None
      | Some ino -> Some (live_contents ino))

(* ------------------------------------------------------------------ *)
(* File handles                                                        *)

let open_real flags path =
  Rfile { fd = Unix.openfile path flags 0o644; closed = false }

let open_append t path =
  match t with
  | Real -> open_real [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] path
  | Faulty st ->
      check_alive st;
      let ino = create_inode st path in
      Mfile { st; ino; path; cursor = ino.len }

let open_trunc t path =
  match t with
  | Real -> open_real [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] path
  | Faulty st ->
      check_alive st;
      let ino = create_inode st path in
      ino.len <- 0;
      Mfile { st; ino; path; cursor = 0 }

let real_write_all fd s off len =
  let rec go off remaining =
    if remaining > 0 then begin
      let n = Unix.write_substring fd s off remaining in
      go (off + n) (remaining - n)
    end
  in
  go off len

(* Apply a write (with possible fault) of [s] landing at [off]; returns
   how many bytes the caller should consider written. *)
let faulty_write st ino path ~site ~off s =
  check_alive st;
  let slen = String.length s in
  match fire st site with
  | None ->
      live_blit ino ~off s ~slen;
      slen
  | Some (name, Crash) -> crash_now st name
  | Some (name, Torn_write n) ->
      (* The fragment hits the platter as the process dies: the durable
         image becomes everything written so far plus the first [n]
         bytes of this write — background writeback is assumed to have
         flushed earlier live bytes, the deterministic worst case for a
         torn tail. *)
      let n = min n slen in
      live_blit ino ~off (String.sub s 0 n) ~slen:n;
      ino.durable <- Some (live_contents ino);
      bind_if_unbound st path ino;
      crash_now st name
  | Some (_, Short_write n) ->
      let n = min n slen in
      live_blit ino ~off (String.sub s 0 n) ~slen:n;
      n
  | Some (name, (No_space | Fsync_raises)) ->
      raise (Fault (Printf.sprintf "write failed at %s: no space" name))
  | Some (_, Fsync_lies) ->
      live_blit ino ~off s ~slen;
      slen
  | Some (_, Bit_flip k) ->
      live_blit ino ~off (flip_in_write s k) ~slen;
      slen

let write ?site file data =
  match file with
  | Rfile r -> real_write_all r.fd data 0 (String.length data)
  | Mfile m ->
      let n = faulty_write m.st m.ino m.path ~site ~off:m.cursor data in
      m.cursor <- m.cursor + n

let size = function
  | Rfile r -> (Unix.fstat r.fd).Unix.st_size
  | Mfile { st; ino; _ } ->
      check_alive st;
      ino.len

let fsync ?site file =
  match file with
  | Rfile r -> Unix.fsync r.fd
  | Mfile { st; ino; path; _ } -> (
      check_alive st;
      match fire st site with
      | None ->
          ino.durable <- Some (live_contents ino);
          bind_if_unbound st path ino
      | Some (_, Fsync_lies) -> ()
      | Some (name, (Fsync_raises | No_space)) ->
          raise (Fault (Printf.sprintf "fsync failed at %s" name))
      | Some (name, (Crash | Torn_write _ | Short_write _ | Bit_flip _)) ->
          crash_now st name)

let close = function
  | Rfile r ->
      if not r.closed then begin
        r.closed <- true;
        try Unix.close r.fd with Unix.Unix_error _ -> ()
      end
  | Mfile _ -> ()

(* ------------------------------------------------------------------ *)
(* Crash simulation                                                    *)

let simulate_crash = function
  | Real -> invalid_arg "Vfs.simulate_crash: real backend"
  | Faulty st ->
      Hashtbl.reset st.live;
      Hashtbl.iter (fun d () -> Hashtbl.replace st.live d Fdir) st.durable_dirs;
      Hashtbl.iter
        (fun path ino ->
          let contents = Option.value ~default:"" ino.durable in
          ino.data <- Bytes.of_string contents;
          ino.len <- String.length contents;
          Hashtbl.replace st.live path (Ffile ino))
        st.durable_ns;
      Hashtbl.reset st.armed;
      st.crashed <- false

let corrupt_durable t path ~byte =
  match t with
  | Real ->
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let buf = Bytes.create 1 in
          ignore (Unix.lseek fd byte Unix.SEEK_SET);
          if Unix.read fd buf 0 1 = 1 then begin
            Bytes.set buf 0
              (Char.chr (Char.code (Bytes.get buf 0) lxor (1 lsl (byte mod 8))));
            ignore (Unix.lseek fd byte Unix.SEEK_SET);
            ignore (Unix.write fd buf 0 1)
          end)
  | Faulty st -> (
      match find_inode st path with
      | None -> invalid_arg (Printf.sprintf "Vfs.corrupt_durable: %s missing" path)
      | Some ino ->
          if byte < ino.len then
            Bytes.set ino.data byte
              (Char.chr (Char.code (Bytes.get ino.data byte) lxor (1 lsl (byte mod 8))));
          ino.durable <-
            Option.map
              (fun d -> if byte < String.length d then flip_byte d byte else d)
              ino.durable)
