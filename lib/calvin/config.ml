let cores = 8
let default_epoch_us = 20_000
let cost_seq_us = 2
let cost_lock_us = 2
let cost_read_us = 1
let cost_exec_us = 2
let cost_write_us = 1
let cost_msg_us = 1
